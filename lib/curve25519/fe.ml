(* GF(2^255 - 19) in the ref10 radix-25.5 representation.

   A value is h0 + h1*2^26 + h2*2^51 + h3*2^77 + h4*2^102 + h5*2^128
   + h6*2^153 + h7*2^179 + h8*2^204 + h9*2^230 with even limbs spanning
   26 bits and odd limbs 25 bits (signed).  The multiplication and carry
   chains below are direct ports of the public-domain ref10 code; the
   63-bit native int replaces C's int64, with identical bounds headroom
   (largest intermediate < 2^62). *)

type t = int array (* length 10 *)

let p = Bigint.(sub (shift_left one 255) (of_int 19))

let zero = Array.make 10 0

let one =
  let a = Array.make 10 0 in
  a.(0) <- 1;
  a

(* The kernels below read limbs into locals with unchecked loads (every
   array is exactly ten limbs), so a field operation is straight-line
   integer code: the pure functions allocate only their result and the
   [*_into] variants allocate nothing. *)

let[@inline] get (a : t) i = Array.unsafe_get a i
let[@inline] set (a : t) i v = Array.unsafe_set a i v

(* Ten non-constant elements: a literal of constants would compile to a
   C-side block copy, a non-constant one to an inline minor allocation. *)
let[@inline] make10 h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 : t = [| h0; h1; h2; h3; h4; h5; h6; h7; h8; h9 |]

let create () =
  let z = Sys.opaque_identity 0 in
  make10 z z z z z z z z z z

let copy f =
  make10 (get f 0) (get f 1) (get f 2) (get f 3) (get f 4) (get f 5) (get f 6) (get f 7) (get f 8)
    (get f 9)

let copy_into h f =
  for i = 0 to 9 do
    set h i (get f i)
  done

let to_limbs f = Array.copy f

let of_limbs a =
  if Array.length a <> 10 then invalid_arg "Fe.of_limbs: need 10 limbs";
  Array.copy a

let add f g =
  make10
    (get f 0 + get g 0) (get f 1 + get g 1) (get f 2 + get g 2) (get f 3 + get g 3)
    (get f 4 + get g 4) (get f 5 + get g 5) (get f 6 + get g 6) (get f 7 + get g 7)
    (get f 8 + get g 8) (get f 9 + get g 9)

let sub f g =
  make10
    (get f 0 - get g 0) (get f 1 - get g 1) (get f 2 - get g 2) (get f 3 - get g 3)
    (get f 4 - get g 4) (get f 5 - get g 5) (get f 6 - get g 6) (get f 7 - get g 7)
    (get f 8 - get g 8) (get f 9 - get g 9)

let neg f =
  make10
    (-get f 0) (-get f 1) (-get f 2) (-get f 3) (-get f 4) (-get f 5) (-get f 6) (-get f 7)
    (-get f 8) (-get f 9)

(* Limb i of the output depends only on limb i of the inputs, so writing
   it in place is safe when [h] is also an input. *)
let add_into h f g =
  for i = 0 to 9 do
    set h i (get f i + get g i)
  done

let sub_into h f g =
  for i = 0 to 9 do
    set h i (get f i - get g i)
  done

let neg_into h f =
  for i = 0 to 9 do
    set h i (-get f i)
  done

(* ref10 carry chain: brings limbs back to canonical 26/25-bit magnitude.
   Runs on ten local limbs and stores the result in [h]; shifts are
   arithmetic so the chain works on signed limbs. *)
let[@inline] carry_store h h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
  let c = (h0 + (1 lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  let c = (h4 + (1 lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h1 + (1 lsl 24)) asr 25 in
  let h2 = h2 + c and h1 = h1 - (c lsl 25) in
  let c = (h5 + (1 lsl 24)) asr 25 in
  let h6 = h6 + c and h5 = h5 - (c lsl 25) in
  let c = (h2 + (1 lsl 25)) asr 26 in
  let h3 = h3 + c and h2 = h2 - (c lsl 26) in
  let c = (h6 + (1 lsl 25)) asr 26 in
  let h7 = h7 + c and h6 = h6 - (c lsl 26) in
  let c = (h3 + (1 lsl 24)) asr 25 in
  let h4 = h4 + c and h3 = h3 - (c lsl 25) in
  let c = (h7 + (1 lsl 24)) asr 25 in
  let h8 = h8 + c and h7 = h7 - (c lsl 25) in
  let c = (h4 + (1 lsl 25)) asr 26 in
  let h5 = h5 + c and h4 = h4 - (c lsl 26) in
  let c = (h8 + (1 lsl 25)) asr 26 in
  let h9 = h9 + c and h8 = h8 - (c lsl 26) in
  let c = (h9 + (1 lsl 24)) asr 25 in
  let h0 = h0 + (c * 19) and h9 = h9 - (c lsl 25) in
  let c = (h0 + (1 lsl 25)) asr 26 in
  let h1 = h1 + c and h0 = h0 - (c lsl 26) in
  set h 0 h0;
  set h 1 h1;
  set h 2 h2;
  set h 3 h3;
  set h 4 h4;
  set h 5 h5;
  set h 6 h6;
  set h 7 h7;
  set h 8 h8;
  set h 9 h9

let carry h =
  carry_store h (get h 0) (get h 1) (get h 2) (get h 3) (get h 4) (get h 5) (get h 6) (get h 7)
    (get h 8) (get h 9);
  h

(* All inputs are read before [h] is written, so [h] may alias [f] or [g]. *)
let mul_into h f g =
  let f0 = get f 0 and f1 = get f 1 and f2 = get f 2 and f3 = get f 3 and f4 = get f 4 in
  let f5 = get f 5 and f6 = get f 6 and f7 = get f 7 and f8 = get f 8 and f9 = get f 9 in
  let g0 = get g 0 and g1 = get g 1 and g2 = get g 2 and g3 = get g 3 and g4 = get g 4 in
  let g5 = get g 5 and g6 = get g 6 and g7 = get g 7 and g8 = get g 8 and g9 = get g 9 in
  let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3 and g4_19 = 19 * g4 in
  let g5_19 = 19 * g5 and g6_19 = 19 * g6 and g7_19 = 19 * g7 and g8_19 = 19 * g8 in
  let g9_19 = 19 * g9 in
  let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7 and f9_2 = 2 * f9 in
  let h0 =
    (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19) + (f5_2 * g5_19)
    + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19) + (f9_2 * g1_19)
  in
  let h1 =
    (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19) + (f5 * g6_19)
    + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19)
  in
  let h2 =
    (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19) + (f5_2 * g7_19)
    + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19) + (f9_2 * g3_19)
  in
  let h3 =
    (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19) + (f5 * g8_19) + (f6 * g7_19)
    + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19)
  in
  let h4 =
    (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0) + (f5_2 * g9_19)
    + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19) + (f9_2 * g5_19)
  in
  let h5 =
    (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0) + (f6 * g9_19)
    + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
  in
  let h6 =
    (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2) + (f5_2 * g1) + (f6 * g0)
    + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19)
  in
  let h7 =
    (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2) + (f6 * g1) + (f7 * g0)
    + (f8 * g9_19) + (f9 * g8_19)
  in
  let h8 =
    (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4) + (f5_2 * g3) + (f6 * g2)
    + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
  in
  let h9 =
    (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4) + (f6 * g3) + (f7 * g2)
    + (f8 * g1) + (f9 * g0)
  in
  carry_store h h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

(* Dedicated squaring (ref10 fe_sq): ~30% cheaper than mul, and point
   doubling — the bulk of every scalar multiplication — is four squares.
   [h] may alias [f]. *)
let square_into h f =
  let f0 = get f 0 and f1 = get f 1 and f2 = get f 2 and f3 = get f 3 and f4 = get f 4 in
  let f5 = get f 5 and f6 = get f 6 and f7 = get f 7 and f8 = get f 8 and f9 = get f 9 in
  let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3 in
  let f4_2 = 2 * f4 and f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 in
  let f5_38 = 38 * f5 and f6_19 = 19 * f6 and f7_38 = 38 * f7 in
  let f8_19 = 19 * f8 and f9_38 = 38 * f9 in
  let h0 = (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19) + (f5 * f5_38) in
  let h1 = (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19) in
  let h2 = (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38) + (f6 * f6_19) in
  let h3 = (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38) in
  let h4 = (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19) + (f7 * f7_38) in
  let h5 = (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19) in
  let h6 = (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38) + (f8 * f8_19) in
  let h7 = (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38) in
  let h8 = (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4) + (f9 * f9_38) in
  let h9 = (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5) in
  carry_store h h0 h1 h2 h3 h4 h5 h6 h7 h8 h9

let mul_small_into h f c =
  carry_store h (get f 0 * c) (get f 1 * c) (get f 2 * c) (get f 3 * c) (get f 4 * c)
    (get f 5 * c) (get f 6 * c) (get f 7 * c) (get f 8 * c) (get f 9 * c)

let mul f g =
  let h = create () in
  mul_into h f g;
  h

let square f =
  let h = create () in
  square_into h f;
  h

let mul_small f c =
  let h = create () in
  mul_small_into h f c;
  h

(* Canonical reduction and little-endian packing (ref10 fe_tobytes). *)
let to_bytes f =
  let h = Array.copy f in
  ignore (carry h);
  let q = ref (((19 * h.(9)) + (1 lsl 24)) asr 25) in
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    q := (h.(i) + !q) asr sz
  done;
  (* !q = 1 iff h >= p; fold 19q in and do a plain carry pass *)
  h.(0) <- h.(0) + (19 * !q);
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    let c = h.(i) asr sz in
    if i < 9 then h.(i + 1) <- h.(i + 1) + c;
    h.(i) <- h.(i) - (c lsl sz)
  done;
  (* pack 255 bits, little-endian *)
  let out = Bytes.make 32 '\000' in
  let acc = ref 0 and accbits = ref 0 and pos = ref 0 in
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    acc := !acc lor (h.(i) lsl !accbits);
    accbits := !accbits + sz;
    while !accbits >= 8 do
      Bytes.set out !pos (Char.chr (!acc land 0xff));
      acc := !acc lsr 8;
      accbits := !accbits - 8;
      incr pos
    done
  done;
  if !accbits > 0 then Bytes.set out !pos (Char.chr (!acc land 0xff));
  out

let of_bytes s =
  if Bytes.length s <> 32 then invalid_arg "Fe.of_bytes: need 32 bytes";
  let h = Array.make 10 0 in
  let acc = ref 0 and accbits = ref 0 and pos = ref 0 in
  for i = 0 to 9 do
    let sz = if i land 1 = 0 then 26 else 25 in
    while !accbits < sz do
      if !pos < 32 then acc := !acc lor (Char.code (Bytes.get s !pos) lsl !accbits);
      incr pos;
      accbits := !accbits + 8
    done;
    h.(i) <- !acc land ((1 lsl sz) - 1);
    acc := !acc lsr sz;
    accbits := !accbits - sz
  done;
  h

let equal f g = Bytes.equal (to_bytes f) (to_bytes g)
let is_zero f = equal f zero
let is_negative f = Char.code (Bytes.get (to_bytes f) 0) land 1 = 1

let to_bigint f = Bigint.of_bytes_le (to_bytes f)

let of_bigint x =
  let x = Bigint.erem x p in
  of_bytes (Bigint.to_bytes_le ~len:32 x)

let of_int n = of_bigint (Bigint.of_int n)

(* Fixed exponents by the ref10 addition chains: 254 squarings and 11
   multiplications for p - 2 = 2^255 - 21, 251 and 11 for (p - 5)/8 =
   2^252 - 3.  Both chains share the prefix below, and each runs in place
   on four temporaries. *)

(* h <- f^(2^n), n >= 1; [h] may be [f] *)
let square_n_into h f n =
  square_into h f;
  for _ = 2 to n do
    square_into h h
  done

(* t0 <- z^11 and t1 <- z^(2^250 - 1); t2 and t3 are scratch.  The
   comments give the exponent of z just computed. *)
let pow_2_250_1 t0 t1 t2 t3 z =
  square_into t0 z;
  square_n_into t1 t0 2;
  mul_into t1 z t1;
  mul_into t0 t0 t1;
  square_into t2 t0;
  mul_into t1 t1 t2;
  (* 2^5 - 1 *)
  square_n_into t2 t1 5;
  mul_into t1 t2 t1;
  (* 2^10 - 1 *)
  square_n_into t2 t1 10;
  mul_into t2 t2 t1;
  (* 2^20 - 1 *)
  square_n_into t3 t2 20;
  mul_into t2 t3 t2;
  (* 2^40 - 1 *)
  square_n_into t2 t2 10;
  mul_into t1 t2 t1;
  (* 2^50 - 1 *)
  square_n_into t2 t1 50;
  mul_into t2 t2 t1;
  (* 2^100 - 1 *)
  square_n_into t3 t2 100;
  mul_into t2 t3 t2;
  (* 2^200 - 1 *)
  square_n_into t2 t2 50;
  mul_into t1 t2 t1

let invert z =
  let t0 = create () and t1 = create () and t2 = create () and t3 = create () in
  pow_2_250_1 t0 t1 t2 t3 z;
  square_n_into t1 t1 5;
  mul_into t1 t1 t0;
  t1

let pow_p58 z =
  let t0 = create () and t1 = create () and t2 = create () and t3 = create () in
  pow_2_250_1 t0 t1 t2 t3 z;
  square_n_into t1 t1 2;
  mul_into t1 t1 z;
  t1

let c_invb_calls = Telemetry.Counter.make "fe.invert_batch.calls"
let c_invb_elems = Telemetry.Counter.make "fe.invert_batch.elems"

let invert_batch xs =
  Telemetry.Counter.incr c_invb_calls;
  Telemetry.Counter.add c_invb_elems (Array.length xs);
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* out.(i) first holds the product of the nonzero entries before i;
       zero entries keep the shared [zero] and are skipped *)
    let out = Array.make n zero in
    let acc = copy one in
    for i = 0 to n - 1 do
      if not (is_zero xs.(i)) then begin
        out.(i) <- copy acc;
        mul_into acc acc xs.(i)
      end
    done;
    let inv = invert acc in
    for i = n - 1 downto 0 do
      let o = out.(i) in
      if o != zero then begin
        mul_into o inv o;
        mul_into inv inv xs.(i)
      end
    done;
    out
  end

(* 2^((p - 1)/4), a square root of -1 (ref10's sqrtm1) *)
let sqrt_m1 =
  make10 (-32595792) (-7943725) 9377950 3500415 12389472 (-272473) (-25146209) (-2005654) 326686
    11406482

let edwards_d =
  let inv121666 = Bigint.mod_inv (Bigint.of_int 121666) p in
  of_bigint (Bigint.erem (Bigint.mul (Bigint.of_int (-121665)) inv121666) p)

let edwards_d2 = add edwards_d edwards_d

let pp fmt f = Format.pp_print_string fmt (Bigint.to_hex (to_bigint f))
