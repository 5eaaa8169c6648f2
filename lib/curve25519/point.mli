(** The prime-order group 𝔾: the order-ℓ subgroup of the twisted Edwards
    curve −x² + y² = 1 + d·x²y² over GF(2^255 − 19) (Ed25519).

    This plays the role of libsodium's Ristretto group in the paper: a
    group of prime order ℓ ≈ 2^252 where the discrete-logarithm problem is
    hard (≈126-bit security). Points are kept in extended homogeneous
    coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.

    All points constructed through this interface lie in the prime-order
    subgroup; [decompress] validates untrusted encodings (on-curve,
    canonical, and subgroup membership). *)

type t

(** The neutral element. *)
val identity : t

(** The standard Ed25519 base point B (order ℓ). *)
val base : t

val add : t -> t -> t
val sub : t -> t -> t
val double : t -> t
val neg : t -> t

(** [equal p q] — projective-coordinate–independent equality. *)
val equal : t -> t -> bool

val is_identity : t -> bool

(** [mul s p] is the scalar multiple [s]·[p] (sliding-window wNAF:
    signed odd digits against an 8-entry odd-multiples precompute held
    in projective cached form, so each table addition costs 8 field
    multiplications). *)
val mul : Scalar.t -> t -> t

(** {2 Mixed-affine (Niels) fast path}

    A point with z = 1 stored as (y+x, y−x, 2d·t): adding one to an
    extended point ({!madd}) costs 7 field multiplications instead of 9.
    The fixed-base tables and the MSM inputs are batch-converted to this
    form through a single Montgomery inversion ({!to_niels_batch}); table
    lookups and MSM bucket insertions are madds (or {!msub}s, for negative
    digits), while the MSM bucket fold adds projective points with
    {!add}. The results are the same group elements as the
    extended-coordinates path — compressed encodings, proofs and verdicts
    are bit-identical. *)

type niels

(** [madd p n] — mixed addition; the same group element as [add p q]
    where [q] is the point [n] denotes. *)
val madd : t -> niels -> t

(** [msub p n] = [madd p (−n)] (negating a Niels point is free: swap the
    sums and negate the t-product). *)
val msub : t -> niels -> t

(** [to_niels_batch ps] — convert many points with one shared field
    inversion. Identity points convert fine (z is never 0). *)
val to_niels_batch : t array -> niels array

(** {2 In-place accumulators}

    The Pippenger bucket loop ({!Msm}) keeps its buckets and running sums
    as mutable accumulators instead of allocating a point per addition.
    An accumulator belongs to one call or one MSM chunk; it is never
    shared across domains. Each operation bumps the same counters as its
    allocating counterpart. *)
module Mut : sig
  (** A mutable point, distinct from the immutable {!t}. *)
  type acc

  (** The temporaries an operation needs; one per accumulator owner. *)
  type scratch

  val scratch : unit -> scratch

  (** A fresh accumulator holding the identity. *)
  val identity : unit -> acc

  val set_identity : acc -> unit

  (** [madd sc acc n] — [acc <- acc + n], a {!madd}. *)
  val madd : scratch -> acc -> niels -> unit

  (** [msub sc acc n] — [acc <- acc − n], an {!msub}: the negation of
      [n] is free. *)
  val msub : scratch -> acc -> niels -> unit

  (** [add sc acc q] — [acc <- acc + q], a full {!add}; [q] must not be
      [acc]. *)
  val add : scratch -> acc -> acc -> unit

  (** [copy dst src] — [dst <- src]; no group operation, no counter. *)
  val copy : acc -> acc -> unit

  (** [double sc acc ~with_t] — [acc <- 2·acc], a {!double}. With
      [with_t:false] the extended T coordinate is left stale, which is
      valid only when the next operation on [acc] is another [double]
      (doubling never reads T). *)
  val double : scratch -> acc -> with_t:bool -> unit

  (** An immutable copy of the accumulator's point. *)
  val freeze : acc -> t
end

(** [mul_small n p] is [n]·[p] for a native-int scalar of either sign —
    much faster than {!mul} for short exponents (e.g. 16-bit gradient
    coordinates). *)
val mul_small : int -> t -> t

(** [mul_base s] is [s]·B using a precomputed fixed-base table. *)
val mul_base : Scalar.t -> t

(** [double_mul s p t q] is [s·p + t·q] (used all over commitment
    generation: g^x · h^r). *)
val double_mul : Scalar.t -> t -> Scalar.t -> t -> t

(** A precomputed fixed-base table for an arbitrary base point: 64
    windows of the 8 multiples (k+1)·16^w·P in Niels form, driven by a
    signed base-16 recoding (digits in [−8, 7]), so a multiplication is
    at most 64 {!madd}s. *)
module Table : sig
  type table

  (** [make p] builds a table making repeated [mul] on [p] ~4x faster. *)
  val make : t -> table

  val mul : table -> Scalar.t -> t

  (** [mul_small tbl n] for native-int exponents of either sign. *)
  val mul_small : table -> int -> t

  (** Serialized size in bytes (fixed: a 8-byte header plus 64·8 Niels
      triples of canonical 32-byte field encodings). *)
  val serialized_size : int

  (** Canonical serialization for the persistent table cache. The bytes
      are identical whether the table was freshly built or loaded from
      cache. *)
  val to_bytes : table -> Bytes.t

  (** [of_bytes ~base b] — parse a serialized table. Returns [None] on
      any structural mismatch (length, magic, geometry) or if the first
      entry does not denote [base]. Integrity (checksums) and cache
      keying are the caller's job ({!Store.Cache} frames blobs with a
      CRC); this function never raises. *)
  val of_bytes : base:t -> Bytes.t -> table option
end

(** 32-byte compressed encoding (canonical y with sign-of-x bit). *)
val compress : t -> Bytes.t

(** [compress_batch ps] compresses many points with one shared field
    inversion (Montgomery batching) — much faster than mapping
    {!compress} when [ps] is large (BSGS decoding, table hashing). *)
val compress_batch : t array -> Bytes.t array

(** Decode and fully validate an untrusted encoding: canonical field
    element, on-curve, and in the prime-order subgroup. Returns [None] on
    any failure.

    Totality invariant: both decoders are total on arbitrary byte strings
    (any length, any contents) — they return [None] and never raise. The
    wire layer relies on this to keep hostile frames from crashing the
    receiver. *)
val decompress : Bytes.t -> t option

(** Decode without the (expensive) subgroup check. Still checks on-curve
    + canonical. Used for locally generated data and by the wire codecs,
    whose protocol checks do not rely on subgroup membership (see
    [Serial]). *)
val decompress_unchecked : Bytes.t -> t option

(** Affine coordinates (x, y) — mostly for tests. *)
val to_affine : t -> Fe.t * Fe.t

val pp : Format.formatter -> t -> unit
