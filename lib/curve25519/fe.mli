(** Arithmetic in GF(2^255 − 19), the base field of Curve25519.

    Representation follows the classic "ref10" layout: ten limbs holding
    alternately 26 and 25 bits, kept as signed native ints, so every
    product and limb-sum stays far below the 63-bit native range.

    Two calling styles share one set of kernels. The pure functions
    ({!add}, {!mul}, ...) return a fresh value and never mutate their
    arguments; treat every value they return, and the constants below, as
    immutable. The destination-passing [*_into] variants write their
    result into their first argument and allocate nothing. The
    destination must be a value the caller owns, obtained from {!create}
    or {!copy} and shared with no one else. It may be the same value as
    any input: every [*_into] function reads all the input limbs it needs
    before it writes the limbs that depend on them. Inputs to {!mul},
    {!square} and their [_into] forms must stay within the ref10 bounds:
    at most a sum or difference of three carried values (the widest the
    point formulas produce).

    Correctness is cross-checked by qcheck against a {!Bigint} reference
    implementation in the test suite. *)

type t

(** The field prime p = 2^255 − 19 (as a bigint, for reference code). *)
val p : Bigint.t

val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val square : t -> t

(** [mul_small x c] multiplies by a small constant [0 <= c < 2^30]. *)
val mul_small : t -> int -> t

(** {2 Destination-passing variants}

    [op_into h x y] stores [op x y] in [h], with limbs identical to the
    pure function's result. *)

(** [create ()] is a fresh, caller-owned zero to use as a destination. *)
val create : unit -> t

(** [copy x] is a fresh, caller-owned value with the limbs of [x]. *)
val copy : t -> t

(** [copy_into h x] overwrites [h] with the limbs of [x]. *)
val copy_into : t -> t -> unit

val add_into : t -> t -> t -> unit
val sub_into : t -> t -> t -> unit
val neg_into : t -> t -> unit
val mul_into : t -> t -> t -> unit
val square_into : t -> t -> unit
val mul_small_into : t -> t -> int -> unit

(** The ten ref10 limbs (a fresh array), and a value from ten limbs —
    for differential tests against reference kernels. *)
val to_limbs : t -> int array

(** Raises [Invalid_argument] unless given exactly ten limbs. *)
val of_limbs : int array -> t

(** [invert x] is [x^(p-2)] — the multiplicative inverse (0 maps to 0),
    by the ref10 addition chain: 254 squarings and 11 multiplications. *)
val invert : t -> t

(** [invert_batch xs] inverts every element with a single field
    exponentiation (Montgomery's trick): 3(n−1) multiplications plus one
    {!invert}. Zero entries map to zero. *)
val invert_batch : t array -> t array

(** [pow_p58 x] is [x^((p-5)/8)], the core step of the square-root used in
    point decompression: 251 squarings and 11 multiplications, sharing
    {!invert}'s chain up to [x^(2^250-1)]. *)
val pow_p58 : t -> t

(** Canonical 32-byte little-endian encoding (top bit clear). *)
val to_bytes : t -> Bytes.t

(** Decode 32 little-endian bytes; the top bit (bit 255) is ignored. The
    result may represent a value in [p, 2^255); it is reduced on the next
    canonical encoding. *)
val of_bytes : Bytes.t -> t

(** Exact equality of field elements (compares canonical encodings). *)
val equal : t -> t -> bool

val is_zero : t -> bool

(** [is_negative x] is the least significant bit of the canonical
    encoding — the "sign" convention of RFC 8032. *)
val is_negative : t -> bool

(** Conversions to/from {!Bigint} (canonical representative in [0, p)). *)
val to_bigint : t -> Bigint.t

val of_bigint : Bigint.t -> t

(** [of_int n] embeds a native int (any sign). *)
val of_int : int -> t

(** Square root of -1, i.e. [sqrt_m1]^2 = -1 (mod p). *)
val sqrt_m1 : t

(** The twisted-Edwards curve constant d = −121665/121666. *)
val edwards_d : t

(** 2·d, used by the extended-coordinates addition formulas. *)
val edwards_d2 : t

val pp : Format.formatter -> t -> unit
