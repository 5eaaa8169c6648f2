(* Ed25519 group operations in extended homogeneous coordinates,
   following the RFC 8032 formulas (complete for a = -1). *)

type t = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

let identity = { x = Fe.zero; y = Fe.one; z = Fe.one; t = Fe.zero }

let c_add = Telemetry.Counter.make "point.add"
let c_double = Telemetry.Counter.make "point.double"
let c_scalarmul = Telemetry.Counter.make "point.scalarmul"

(* --- in-place kernels ---

   Every operation below runs on the Fe [*_into] kernels.  The allocating
   API wraps them; scalar multiplication and Pippenger keep one mutable
   accumulator per call (or per MSM chunk) plus a [scratch] of four
   temporaries, so their inner loops allocate nothing.  An accumulator is
   an ordinary [t] whose four arrays the call owns; nothing here ever
   writes into a point it did not create.  Each kernel bumps exactly the
   counters of the operation it implements. *)

type scratch = { s0 : Fe.t; s1 : Fe.t; s2 : Fe.t; s3 : Fe.t }

let scratch () = { s0 = Fe.create (); s1 = Fe.create (); s2 = Fe.create (); s3 = Fe.create () }

(* owned coordinates, to be overwritten by a kernel *)
let fresh () = { x = Fe.create (); y = Fe.create (); z = Fe.create (); t = Fe.create () }

let fresh_identity () =
  { x = Fe.create (); y = Fe.copy Fe.one; z = Fe.copy Fe.one; t = Fe.create () }

let fresh_copy p = { x = Fe.copy p.x; y = Fe.copy p.y; z = Fe.copy p.z; t = Fe.copy p.t }

let set_identity r =
  Fe.copy_into r.x Fe.zero;
  Fe.copy_into r.y Fe.one;
  Fe.copy_into r.z Fe.one;
  Fe.copy_into r.t Fe.zero

(* Shared tail of every addition formula.  On entry s0..s3 hold A, B, C,
   D; it forms E = B - A, F = D - C, G = D + C, H = B + A and writes
   (EF, GH, FG, EH) to [r].  [negc] swaps F and G, which turns "+ Q" into
   "- Q" when C was computed for Q.  With [with_t] false, r.t is left
   stale: valid only when the next operation on [r] is a doubling, which
   never reads T (ref10's p1p1 -> p2 conversion).  Every read of the
   input point happens before the caller gets here, so [r] may be that
   point. *)
let finish sc r ~negc ~with_t =
  let e = sc.s0 and g = sc.s1 and f = sc.s3 and h = r.y in
  Fe.add_into h sc.s1 sc.s0;
  Fe.sub_into e sc.s1 sc.s0;
  if negc then begin
    Fe.sub_into g sc.s3 sc.s2;
    Fe.add_into f sc.s3 sc.s2
  end
  else begin
    Fe.add_into g sc.s3 sc.s2;
    Fe.sub_into f sc.s3 sc.s2
  end;
  Fe.mul_into r.x e f;
  Fe.mul_into r.z f g;
  if with_t then Fe.mul_into r.t e h;
  Fe.mul_into r.y g h

(* r <- p + q, both extended: 9 multiplies, limbs identical to the RFC
   8032 formula evaluated term by term.  [r] may be [p]. *)
let add_into sc r p q ~with_t =
  Telemetry.Counter.incr c_add;
  let a = sc.s0 and b = sc.s1 and c = sc.s2 and d = sc.s3 in
  Fe.sub_into a p.y p.x;
  Fe.sub_into b q.y q.x;
  Fe.mul_into a a b;
  Fe.add_into b p.y p.x;
  Fe.add_into c q.y q.x;
  Fe.mul_into b b c;
  Fe.mul_into c p.t Fe.edwards_d2;
  Fe.mul_into c c q.t;
  Fe.add_into d p.z p.z;
  Fe.mul_into d d q.z;
  finish sc r ~negc:false ~with_t

(* r <- 2p.  Reads X, Y, Z only, so p.t may be stale.  [r] may be [p]. *)
let double_into sc r p ~with_t =
  Telemetry.Counter.incr c_double;
  let a = sc.s0 and b = sc.s1 and c = sc.s2 and h = sc.s3 and e = r.x in
  Fe.square_into a p.x;
  Fe.square_into b p.y;
  Fe.square_into c p.z;
  Fe.mul_small_into c c 2;
  Fe.add_into h a b;
  Fe.add_into e p.x p.y;
  Fe.square_into e e;
  Fe.sub_into e h e;
  let g = a and f = c in
  Fe.sub_into g a b;
  Fe.add_into f c g;
  if with_t then Fe.mul_into r.t e h;
  Fe.mul_into r.y g h;
  Fe.mul_into r.z f g;
  Fe.mul_into r.x e f

let add p q =
  let r = fresh () in
  add_into (scratch ()) r p q ~with_t:true;
  r

let double p =
  let r = fresh () in
  double_into (scratch ()) r p ~with_t:true;
  r

let neg p = { p with x = Fe.neg p.x; t = Fe.neg p.t }
let sub p q = add p (neg q)

(* --- projective cached form ---

   (Y+X, Y-X, 2Z, 2d*T) of an extended point: the parts of the addition
   formula that depend on the added point alone.  Adding a cached point
   costs 8 multiplies instead of 9, and subtracting it is the same
   formula with the sums swapped and C negated (via [finish]'s [negc]),
   so no negated point is ever built.  The odd-multiple tables of [mul]
   and [double_mul] are held in this form. *)

type cached = { ypx : Fe.t; ymx : Fe.t; z2 : Fe.t; t2d : Fe.t }

let to_cached p =
  { ypx = Fe.add p.y p.x; ymx = Fe.sub p.y p.x; z2 = Fe.add p.z p.z; t2d = Fe.mul p.t Fe.edwards_d2 }

(* r <- p + q ([neg] false) or p - q ([neg] true).  [r] may be [p]. *)
let add_cached_into sc r p q ~neg ~with_t =
  Telemetry.Counter.incr c_add;
  let a = sc.s0 and b = sc.s1 and c = sc.s2 and d = sc.s3 in
  Fe.sub_into a p.y p.x;
  Fe.mul_into a a (if neg then q.ypx else q.ymx);
  Fe.add_into b p.y p.x;
  Fe.mul_into b b (if neg then q.ymx else q.ypx);
  Fe.mul_into c p.t q.t2d;
  Fe.mul_into d p.z q.z2;
  finish sc r ~negc:neg ~with_t

(* --- mixed-affine ("Niels") form ---

   A point with z = 1 stored as (y+x, y−x, 2d·t).  Adding such a point to
   an extended point costs 7 field muls instead of 9 (the z-product and
   the d2 scaling are pre-absorbed).  All MSM inputs and all fixed-base
   table entries are flushed to this form through one Montgomery
   inversion pass, and every table addition and MSM bucket insertion
   thereafter is a madd. *)

type niels = { yplusx : Fe.t; yminusx : Fe.t; td2 : Fe.t }

let c_madd = Telemetry.Counter.make "point.madd"
let c_niels_batches = Telemetry.Counter.make "point.niels.batches"
let c_niels_points = Telemetry.Counter.make "point.niels.points"

(* madd: the complete a=-1 formulas specialized to q.z = 1, with q's
   (y±x) and 2d·t precomputed — the same group element as [add p q].  [neg] subtracts
   instead (sums swapped, C negated).  Counted under point.add (it is
   one) and point.madd (for the fast-path breakdown).  [r] may be [p]. *)
let madd_into sc r p n ~neg =
  Telemetry.Counter.incr c_add;
  Telemetry.Counter.incr c_madd;
  let a = sc.s0 and b = sc.s1 and c = sc.s2 and d = sc.s3 in
  Fe.sub_into a p.y p.x;
  Fe.mul_into a a (if neg then n.yplusx else n.yminusx);
  Fe.add_into b p.y p.x;
  Fe.mul_into b b (if neg then n.yminusx else n.yplusx);
  Fe.mul_into c p.t n.td2;
  Fe.add_into d p.z p.z;
  finish sc r ~negc:neg ~with_t:true

let madd p n =
  let r = fresh () in
  madd_into (scratch ()) r p n ~neg:false;
  r

let msub p n =
  let r = fresh () in
  madd_into (scratch ()) r p n ~neg:true;
  r

let to_niels_batch ps =
  Telemetry.Counter.incr c_niels_batches;
  Telemetry.Counter.add c_niels_points (Array.length ps);
  let zinvs = Fe.invert_batch (Array.map (fun p -> p.z) ps) in
  Array.mapi
    (fun i p ->
      let x = Fe.mul p.x zinvs.(i) in
      let y = Fe.mul p.y zinvs.(i) in
      { yplusx = Fe.add y x; yminusx = Fe.sub y x; td2 = Fe.mul (Fe.mul x y) Fe.edwards_d2 })
    ps

let equal p q =
  (* x1/z1 = x2/z2 and y1/z1 = y2/z2 *)
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z) && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

let is_identity p = Fe.is_zero p.x && Fe.equal p.y p.z

(* --- compression --- *)

let compress p =
  let zinv = Fe.invert p.z in
  let x = Fe.mul p.x zinv in
  let y = Fe.mul p.y zinv in
  let b = Fe.to_bytes y in
  if Fe.is_negative x then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  b

let compress_batch ps =
  let zinvs = Fe.invert_batch (Array.map (fun p -> p.z) ps) in
  Array.mapi
    (fun i p ->
      let x = Fe.mul p.x zinvs.(i) in
      let y = Fe.mul p.y zinvs.(i) in
      let b = Fe.to_bytes y in
      if Fe.is_negative x then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
      b)
    ps

let to_affine p =
  let zinv = Fe.invert p.z in
  (Fe.mul p.x zinv, Fe.mul p.y zinv)

(* Recover x from y: x^2 = (y^2 - 1) / (d y^2 + 1).  RFC 8032 §5.1.3. *)
let recover_x y sign =
  let y2 = Fe.square y in
  let u = Fe.sub y2 Fe.one in
  let v = Fe.add (Fe.mul Fe.edwards_d y2) Fe.one in
  (* candidate root: x = u v^3 (u v^7)^((p-5)/8) *)
  let v3 = Fe.mul (Fe.square v) v in
  let v7 = Fe.mul (Fe.square v3) v in
  let x = Fe.mul (Fe.mul u v3) (Fe.pow_p58 (Fe.mul u v7)) in
  let vx2 = Fe.mul v (Fe.square x) in
  let x =
    if Fe.equal vx2 u then Some x
    else if Fe.equal vx2 (Fe.neg u) then Some (Fe.mul x Fe.sqrt_m1)
    else None
  in
  match x with
  | None -> None
  | Some x ->
      if Fe.is_zero x && sign then None (* -0 is invalid *)
      else Some (if Fe.is_negative x <> sign then Fe.neg x else x)

let decompress_unchecked b =
  if Bytes.length b <> 32 then None
  else begin
    let sign = Char.code (Bytes.get b 31) land 0x80 <> 0 in
    let yb = Bytes.copy b in
    Bytes.set yb 31 (Char.chr (Char.code (Bytes.get yb 31) land 0x7f));
    let y = Fe.of_bytes yb in
    (* reject non-canonical y (>= p) *)
    if not (Bytes.equal (Fe.to_bytes y) yb) then None
    else
      match recover_x y sign with
      | None -> None
      | Some x -> Some { x; y; z = Fe.one; t = Fe.mul x y }
  end

(* --- scalar multiplication --- *)

(* Variable-base multiplication uses sliding-window wNAF recoding
   (Scalar.to_wnaf): digits are zero or odd with |d| <= 15, so the
   precompute is the 8 odd multiples {P, 3P, ..., 15P} and the main loop
   averages one addition per ~5 doublings — about 2/3 the additions of
   the old 4-bit unsigned windows with half the table build.  Everything
   is vartime; this is a research prototype, not a signing library. *)

(* The loops below keep one accumulator and one scratch per call.  A
   doubling computes T only when the next operation reads it (an
   addition, or the end of the call), and so does an addition: X, Y and Z
   are the same limbs either way, and the counters see the same
   operations. *)

(* [| P; 2P; ...; 15P |] at index 1..15 (index 0 unused), extended *)
let small_table sc p =
  let tbl = Array.make 16 identity in
  tbl.(1) <- p;
  let pc = to_cached p in
  for i = 2 to 15 do
    let r = fresh () in
    add_cached_into sc r tbl.(i - 1) pc ~neg:false ~with_t:true;
    tbl.(i) <- r
  done;
  tbl

(* odd multiples [| P; 3P; 5P; ...; 15P |] (digit d indexes (|d|-1)/2),
   extended and cached *)
let odd_multiples sc p =
  let ext = Array.make 8 p in
  let p2 = fresh () in
  double_into sc p2 p ~with_t:true;
  let p2c = to_cached p2 in
  for i = 1 to 7 do
    let r = fresh () in
    add_cached_into sc r ext.(i - 1) p2c ~neg:false ~with_t:true;
    ext.(i) <- r
  done;
  (ext, Array.map to_cached ext)

let c_wnaf_width = Telemetry.Counter.make "point.wnaf.width"

let mul s p =
  Telemetry.Counter.incr c_scalarmul;
  Telemetry.Counter.add c_wnaf_width Scalar.wnaf_window;
  let digits = Scalar.to_wnaf s in
  let top = ref (Array.length digits - 1) in
  while !top >= 0 && digits.(!top) = 0 do
    decr top
  done;
  if !top < 0 then identity
  else begin
    let sc = scratch () in
    let ext, tbl = odd_multiples sc p in
    let d0 = digits.(!top) in
    let acc = fresh_copy ext.((abs d0 - 1) / 2) in
    if d0 < 0 then begin
      Fe.neg_into acc.x acc.x;
      Fe.neg_into acc.t acc.t
    end;
    for i = !top - 1 downto 0 do
      let d = digits.(i) in
      double_into sc acc acc ~with_t:(d <> 0 || i = 0);
      if d <> 0 then add_cached_into sc acc acc tbl.((abs d - 1) / 2) ~neg:(d < 0) ~with_t:(i = 0)
    done;
    acc
  end

let mul_small n p =
  Telemetry.Counter.incr c_scalarmul;
  if n = 0 then identity
  else begin
    let p = if n < 0 then neg p else p in
    let n = abs n in
    let sc = scratch () in
    let tbl = small_table sc p in
    let nbits =
      let rec w acc v = if v = 0 then acc else w (acc + 1) (v lsr 1) in
      w 0 n
    in
    (* unsigned base-16 digits, most significant first *)
    let top = ((nbits + 3) / 4) - 1 in
    let acc = fresh_identity () in
    for i = top downto 0 do
      let d = (n lsr (4 * i)) land 0xf in
      let last = d <> 0 || i = 0 in
      if i < top then begin
        double_into sc acc acc ~with_t:false;
        double_into sc acc acc ~with_t:false;
        double_into sc acc acc ~with_t:false;
        double_into sc acc acc ~with_t:last
      end;
      if d <> 0 then add_into sc acc acc tbl.(d) ~with_t:(i = 0)
    done;
    acc
  end

(* --- fixed-base tables --- *)

module Table = struct
  (* tbl.win.(w).(k) = (k+1) * 16^w * P  for w in [0, 63], k in [0, 8),
     held in precomputed mixed-affine (Niels) form.  Scalars are recoded
     into signed base-16 digits in [-8, 7], so one multiplication is
     <= 64 cheap madds against an 8-entry-per-window table — half the
     entries (and half the build work) of the old unsigned layout. *)
  type table = { win : niels array array }

  let windows = 64
  let entries = 8

  let make p =
    (* build time is a span, not a counter: counters must be jobs-invariant *)
    Telemetry.Span.with_ "point.table.build" @@ fun () ->
    let ext = Array.make (windows * entries) identity in
    let base = ref p in
    for w = 0 to windows - 1 do
      let e1 = !base in
      ext.(w * entries) <- e1;
      let acc = ref (double e1) in
      ext.((w * entries) + 1) <- !acc;
      for k = 2 to entries - 1 do
        acc := add !acc e1;
        ext.((w * entries) + k) <- !acc
      done;
      if w < windows - 1 then begin
        let b = ref !base in
        for _ = 1 to 4 do
          b := double !b
        done;
        base := !b
      end
    done;
    (* one Montgomery pass flushes all 512 entries to affine Niels form *)
    let nls = to_niels_batch ext in
    let win = Array.init windows (fun w -> Array.sub nls (w * entries) entries) in
    ignore p;
    { win }

  (* signed base-16 recoding: digits in [-8, 7] with carry; scalars are
     < 2^253 so the top window digit is at most 2 and never carries out *)
  let signed_digits e =
    let raw = Bigint.to_digits ~bits:4 ~count:windows e in
    let out = Array.make windows 0 in
    let carry = ref 0 in
    for w = 0 to windows - 1 do
      let d = raw.(w) + !carry in
      if d >= 8 then begin
        out.(w) <- d - 16;
        carry := 1
      end
      else begin
        out.(w) <- d;
        carry := 0
      end
    done;
    assert (!carry = 0);
    out

  let mul tbl s =
    Telemetry.Counter.incr c_scalarmul;
    let digits = signed_digits (Scalar.to_bigint s) in
    let sc = scratch () and acc = fresh_identity () in
    for w = 0 to windows - 1 do
      let d = digits.(w) in
      if d <> 0 then madd_into sc acc acc tbl.win.(w).(abs d - 1) ~neg:(d < 0)
    done;
    acc

  let mul_small tbl n =
    Telemetry.Counter.incr c_scalarmul;
    if n = 0 then identity
    else if n = min_int then invalid_arg "Table.mul_small: exponent out of range"
    else begin
      let sc = scratch () and acc = fresh_identity () in
      let w = ref 0 in
      let v = ref (abs n) in
      while !v <> 0 do
        let d0 = !v land 0xf in
        let d = if d0 >= 8 then d0 - 16 else d0 in
        if d <> 0 then madd_into sc acc acc tbl.win.(!w).(abs d - 1) ~neg:(d < 0);
        v := (!v - d) asr 4;
        incr w
      done;
      if n < 0 then begin
        Fe.neg_into acc.x acc.x;
        Fe.neg_into acc.t acc.t
      end;
      acc
    end

  (* --- serialization (for the persistent table cache) ---

     Layout: "RTB2" | u8 windows | u8 entries | 2 zero bytes, then
     windows*entries Niels triples (y+x, y-x, 2d*t), each a canonical
     32-byte field encoding.  Canonical encodings make the serialized
     form identical whether the table was freshly built or cache-loaded.
     Integrity (CRC) and keying (base-point compress + params) are the
     cache layer's job; [of_bytes] validates the structure and that
     entry (0,0) really is [base]. *)

  let magic = "RTB2"
  let serialized_size = 8 + (windows * entries * 96)

  let inv_two = lazy (Fe.invert (Fe.of_int 2))

  let to_bytes tbl =
    let buf = Bytes.make serialized_size '\000' in
    Bytes.blit_string magic 0 buf 0 4;
    Bytes.set buf 4 (Char.chr windows);
    Bytes.set buf 5 (Char.chr entries);
    let off = ref 8 in
    Array.iter
      (fun row ->
        Array.iter
          (fun n ->
            Bytes.blit (Fe.to_bytes n.yplusx) 0 buf !off 32;
            Bytes.blit (Fe.to_bytes n.yminusx) 0 buf (!off + 32) 32;
            Bytes.blit (Fe.to_bytes n.td2) 0 buf (!off + 64) 32;
            off := !off + 96)
          row)
      tbl.win;
    buf

  (* reconstruct the extended point a Niels entry denotes *)
  let point_of_niels n =
    let half = Lazy.force inv_two in
    let x = Fe.mul (Fe.sub n.yplusx n.yminusx) half in
    let y = Fe.mul (Fe.add n.yplusx n.yminusx) half in
    { x; y; z = Fe.one; t = Fe.mul x y }

  let of_bytes ~base b =
    if Bytes.length b <> serialized_size then None
    else if not (String.equal (Bytes.sub_string b 0 4) magic) then None
    else if Char.code (Bytes.get b 4) <> windows || Char.code (Bytes.get b 5) <> entries then
      None
    else begin
      let win =
        Array.init windows (fun w ->
            Array.init entries (fun k ->
                let off = 8 + (((w * entries) + k) * 96) in
                let fe j = Fe.of_bytes (Bytes.sub b (off + (32 * j)) 32) in
                { yplusx = fe 0; yminusx = fe 1; td2 = fe 2 }))
      in
      let tbl = { win } in
      (* the cheap semantic check: the (0,0) entry must denote the base
         point itself (guards against a cache entry for the wrong base
         slipping past the key) *)
      if equal (point_of_niels win.(0).(0)) base then Some tbl else None
    end
end

(* --- mutable accumulators for Msm --- *)

module Mut = struct
  type acc = t
  type nonrec scratch = scratch

  let scratch = scratch
  let identity = fresh_identity
  let set_identity = set_identity
  let madd sc acc n = madd_into sc acc acc n ~neg:false
  let msub sc acc n = madd_into sc acc acc n ~neg:true
  let add sc acc q = add_into sc acc acc q ~with_t:true

  let copy dst src =
    Fe.copy_into dst.x src.x;
    Fe.copy_into dst.y src.y;
    Fe.copy_into dst.z src.z;
    Fe.copy_into dst.t src.t

  let double sc acc ~with_t = double_into sc acc acc ~with_t
  let freeze = fresh_copy
end

(* --- base point --- *)

let base =
  (* canonical compressed encoding of B = (x, 4/5) with x "even" *)
  let enc = Bytes.make 32 '\x66' in
  Bytes.set enc 0 '\x58';
  match decompress_unchecked enc with
  | Some p -> p
  | None -> assert false

(* eager: a concurrent Lazy.force from two domains raises; building the
   table at module init (~1k additions) keeps mul_base domain-safe *)
let base_table = Table.make base

let mul_base s = Table.mul base_table s

(* Strauss–Shamir interleaving: one shared wNAF doubling chain for both
   scalars, ~1.5x faster than two independent multiplications.  This is
   the hot path of every Sigma-protocol verification and every IPA fold. *)
let double_mul s p t q =
  let es = Scalar.to_bigint s and et = Scalar.to_bigint t in
  if Bigint.is_zero es then mul t q
  else if Bigint.is_zero et then mul s p
  else begin
    Telemetry.Counter.add c_scalarmul 2;
    Telemetry.Counter.add c_wnaf_width (2 * Scalar.wnaf_window);
    let dss = Scalar.to_wnaf s and dts = Scalar.to_wnaf t in
    let sc = scratch () in
    let _, tp = odd_multiples sc p in
    let _, tq = odd_multiples sc q in
    let top = ref 255 in
    while !top >= 0 && dss.(!top) = 0 && dts.(!top) = 0 do
      decr top
    done;
    let acc = fresh_identity () in
    for i = !top downto 0 do
      let ds = dss.(i) and dt = dts.(i) in
      if i < !top then double_into sc acc acc ~with_t:(ds <> 0 || dt <> 0 || i = 0);
      if ds <> 0 then
        add_cached_into sc acc acc tp.((abs ds - 1) / 2) ~neg:(ds < 0) ~with_t:(dt <> 0 || i = 0);
      if dt <> 0 then add_cached_into sc acc acc tq.((abs dt - 1) / 2) ~neg:(dt < 0) ~with_t:(i = 0)
    done;
    acc
  end

(* subgroup check needs mul, so it comes last *)
let decompress b =
  match decompress_unchecked b with
  | None -> None
  | Some p ->
      (* multiplication by the group order must give the identity *)
      if is_identity (mul (Scalar.of_bigint (Bigint.sub Scalar.order Bigint.one)) p |> add p) then Some p
      else None

let pp fmt p =
  let b = compress p in
  let buf = Buffer.create 64 in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Format.pp_print_string fmt (Buffer.contents buf)
