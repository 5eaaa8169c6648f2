(* Group-layer fast paths: the in-place field and point kernels, the
   inversion and square-root addition chains, wNAF scalar
   multiplication, signed fixed-base tables, signed-digit batched-affine
   MSM, the center-out BSGS solver, and the persistent table cache.
   Every fast path is differentially tested against a slow reference
   (the kernels against the allocating seed implementation, limb for
   limb and op count for op count; the chains against Bigint; the MSM
   against the seed's unsigned Pippenger, byte for byte, with its own
   op counts pinned), the kernels' allocation is pinned, and the cache
   is tested against corruption: a bad cache file must read as a miss,
   never as wrong data. *)

module Fe = Curve25519.Fe
module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm
module Dlog = Curve25519.Dlog
module B = Bigint
module Cache = Store.Cache
module Group_cache = Risefl_core.Group_cache

let drbg = Prng.Drbg.create_string "test-group-fast"

let rand_fe () = Fe.of_bigint (B.random ~bits:300 (Prng.Drbg.rand26 drbg))
let rand_scalar () = Scalar.random drbg
let rand_point () = Point.mul_base (rand_scalar ())

let check_point msg p q = Alcotest.(check bool) msg true (Point.equal p q)

let with_temp_dir f =
  let dir = Filename.temp_file "risefl-test-cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* --- the seed kernels, kept as the differential oracle ---

   The allocating ref10 field port and the point formulas and
   scalar-multiplication loops this library shipped before its kernels
   became in-place.  Field values are plain limb arrays; every operation
   counts itself the way the library's telemetry counters did. *)

module Reference = struct
  let add f g = Array.init 10 (fun i -> f.(i) + g.(i))
  let sub f g = Array.init 10 (fun i -> f.(i) - g.(i))
  let neg f = Array.init 10 (fun i -> -f.(i))

  let carry h =
    let c = ref 0 in
    c := (h.(0) + (1 lsl 25)) asr 26;
    h.(1) <- h.(1) + !c;
    h.(0) <- h.(0) - (!c lsl 26);
    c := (h.(4) + (1 lsl 25)) asr 26;
    h.(5) <- h.(5) + !c;
    h.(4) <- h.(4) - (!c lsl 26);
    c := (h.(1) + (1 lsl 24)) asr 25;
    h.(2) <- h.(2) + !c;
    h.(1) <- h.(1) - (!c lsl 25);
    c := (h.(5) + (1 lsl 24)) asr 25;
    h.(6) <- h.(6) + !c;
    h.(5) <- h.(5) - (!c lsl 25);
    c := (h.(2) + (1 lsl 25)) asr 26;
    h.(3) <- h.(3) + !c;
    h.(2) <- h.(2) - (!c lsl 26);
    c := (h.(6) + (1 lsl 25)) asr 26;
    h.(7) <- h.(7) + !c;
    h.(6) <- h.(6) - (!c lsl 26);
    c := (h.(3) + (1 lsl 24)) asr 25;
    h.(4) <- h.(4) + !c;
    h.(3) <- h.(3) - (!c lsl 25);
    c := (h.(7) + (1 lsl 24)) asr 25;
    h.(8) <- h.(8) + !c;
    h.(7) <- h.(7) - (!c lsl 25);
    c := (h.(4) + (1 lsl 25)) asr 26;
    h.(5) <- h.(5) + !c;
    h.(4) <- h.(4) - (!c lsl 26);
    c := (h.(8) + (1 lsl 25)) asr 26;
    h.(9) <- h.(9) + !c;
    h.(8) <- h.(8) - (!c lsl 26);
    c := (h.(9) + (1 lsl 24)) asr 25;
    h.(0) <- h.(0) + (!c * 19);
    h.(9) <- h.(9) - (!c lsl 25);
    c := (h.(0) + (1 lsl 25)) asr 26;
    h.(1) <- h.(1) + !c;
    h.(0) <- h.(0) - (!c lsl 26);
    h

  let mul f g =
    let f0 = f.(0) and f1 = f.(1) and f2 = f.(2) and f3 = f.(3) and f4 = f.(4) in
    let f5 = f.(5) and f6 = f.(6) and f7 = f.(7) and f8 = f.(8) and f9 = f.(9) in
    let g0 = g.(0) and g1 = g.(1) and g2 = g.(2) and g3 = g.(3) and g4 = g.(4) in
    let g5 = g.(5) and g6 = g.(6) and g7 = g.(7) and g8 = g.(8) and g9 = g.(9) in
    let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3 and g4_19 = 19 * g4 in
    let g5_19 = 19 * g5 and g6_19 = 19 * g6 and g7_19 = 19 * g7 and g8_19 = 19 * g8 in
    let g9_19 = 19 * g9 in
    let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 and f7_2 = 2 * f7 and f9_2 = 2 * f9 in
    let h = Array.make 10 0 in
    h.(0) <-
      (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19) + (f4 * g6_19) + (f5_2 * g5_19)
      + (f6 * g4_19) + (f7_2 * g3_19) + (f8 * g2_19) + (f9_2 * g1_19);
    h.(1) <-
      (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19) + (f5 * g6_19)
      + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19) + (f9 * g2_19);
    h.(2) <-
      (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19) + (f5_2 * g7_19)
      + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19) + (f9_2 * g3_19);
    h.(3) <-
      (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19) + (f5 * g8_19) + (f6 * g7_19)
      + (f7 * g6_19) + (f8 * g5_19) + (f9 * g4_19);
    h.(4) <-
      (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0) + (f5_2 * g9_19)
      + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19) + (f9_2 * g5_19);
    h.(5) <-
      (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0) + (f6 * g9_19)
      + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19);
    h.(6) <-
      (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2) + (f5_2 * g1) + (f6 * g0)
      + (f7_2 * g9_19) + (f8 * g8_19) + (f9_2 * g7_19);
    h.(7) <-
      (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2) + (f6 * g1) + (f7 * g0)
      + (f8 * g9_19) + (f9 * g8_19);
    h.(8) <-
      (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4) + (f5_2 * g3) + (f6 * g2)
      + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19);
    h.(9) <-
      (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4) + (f6 * g3) + (f7 * g2)
      + (f8 * g1) + (f9 * g0);
    carry h

  let square f =
    let f0 = f.(0) and f1 = f.(1) and f2 = f.(2) and f3 = f.(3) and f4 = f.(4) in
    let f5 = f.(5) and f6 = f.(6) and f7 = f.(7) and f8 = f.(8) and f9 = f.(9) in
    let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 and f3_2 = 2 * f3 in
    let f4_2 = 2 * f4 and f5_2 = 2 * f5 and f6_2 = 2 * f6 and f7_2 = 2 * f7 in
    let f5_38 = 38 * f5 and f6_19 = 19 * f6 and f7_38 = 38 * f7 in
    let f8_19 = 19 * f8 and f9_38 = 38 * f9 in
    let h = Array.make 10 0 in
    h.(0) <- (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38) + (f4_2 * f6_19) + (f5 * f5_38);
    h.(1) <- (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38) + (f5_2 * f6_19);
    h.(2) <- (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19) + (f5_2 * f7_38) + (f6 * f6_19);
    h.(3) <- (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38);
    h.(4) <- (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38) + (f6_2 * f8_19) + (f7 * f7_38);
    h.(5) <- (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19);
    h.(6) <- (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38) + (f8 * f8_19);
    h.(7) <- (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38);
    h.(8) <- (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4) + (f9 * f9_38);
    h.(9) <- (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5);
    carry h

  let mul_small f c =
    let h = Array.map (fun x -> x * c) f in
    carry h

  let zero = Fe.to_limbs Fe.zero
  let one = Fe.to_limbs Fe.one
  let d2 = Fe.to_limbs Fe.edwards_d2

  (* point.add, point.double, point.madd, point.scalarmul *)
  let adds = ref 0
  let doubles = ref 0
  let madds = ref 0
  let scalarmuls = ref 0

  type point = { x : int array; y : int array; z : int array; t : int array }

  let identity = { x = zero; y = one; z = one; t = zero }

  let padd p q =
    incr adds;
    let a = mul (sub p.y p.x) (sub q.y q.x) in
    let b = mul (add p.y p.x) (add q.y q.x) in
    let c = mul (mul p.t d2) q.t in
    let d = mul (add p.z p.z) q.z in
    let e = sub b a in
    let f = sub d c in
    let g = add d c in
    let h = add b a in
    { x = mul e f; y = mul g h; z = mul f g; t = mul e h }

  let pdouble p =
    incr doubles;
    let a = square p.x in
    let b = square p.y in
    let c = mul_small (square p.z) 2 in
    let h = add a b in
    let e = sub h (square (add p.x p.y)) in
    let g = sub a b in
    let f = add c g in
    { x = mul e f; y = mul g h; z = mul f g; t = mul e h }

  let pneg p = { p with x = neg p.x; t = neg p.t }
  let psub p q = padd p (pneg q)

  type niels = { yplusx : int array; yminusx : int array; td2 : int array }

  let madd p n =
    incr adds;
    incr madds;
    let a = mul (sub p.y p.x) n.yminusx in
    let b = mul (add p.y p.x) n.yplusx in
    let c = mul p.t n.td2 in
    let d = add p.z p.z in
    let e = sub b a in
    let f = sub d c in
    let g = add d c in
    let h = add b a in
    { x = mul e f; y = mul g h; z = mul f g; t = mul e h }

  let msub p n = madd p { yplusx = n.yminusx; yminusx = n.yplusx; td2 = neg n.td2 }

  let of_point q =
    let x, y = Point.to_affine q in
    let x = Fe.to_limbs x and y = Fe.to_limbs y in
    { x; y; z = one; t = mul x y }

  let to_affine p =
    let zinv = Fe.to_limbs (Fe.invert (Fe.of_limbs p.z)) in
    (mul p.x zinv, mul p.y zinv)

  let compress p =
    let x, y = to_affine p in
    let b = Fe.to_bytes (Fe.of_limbs y) in
    if Fe.is_negative (Fe.of_limbs x) then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
    b

  let to_niels p =
    let x, y = to_affine p in
    { yplusx = add y x; yminusx = sub y x; td2 = mul (mul x y) d2 }

  let odd_multiples p =
    let tbl = Array.make 8 p in
    let p2 = pdouble p in
    for i = 1 to 7 do
      tbl.(i) <- padd tbl.(i - 1) p2
    done;
    tbl

  let pmul s p =
    incr scalarmuls;
    let digits = Scalar.to_wnaf s in
    let top = ref (Array.length digits - 1) in
    while !top >= 0 && digits.(!top) = 0 do
      decr top
    done;
    if !top < 0 then identity
    else begin
      let tbl = odd_multiples p in
      let d0 = digits.(!top) in
      let acc = ref (if d0 > 0 then tbl.((d0 - 1) / 2) else pneg tbl.(((-d0) - 1) / 2)) in
      for i = !top - 1 downto 0 do
        acc := pdouble !acc;
        let d = digits.(i) in
        if d > 0 then acc := padd !acc tbl.((d - 1) / 2)
        else if d < 0 then acc := psub !acc tbl.(((-d) - 1) / 2)
      done;
      !acc
    end

  let pmul_small n p =
    incr scalarmuls;
    if n = 0 then identity
    else begin
      let p = if n < 0 then pneg p else p in
      let n = abs n in
      let tbl = Array.make 16 identity in
      tbl.(1) <- p;
      for i = 2 to 15 do
        tbl.(i) <- padd tbl.(i - 1) p
      done;
      let nbits =
        let rec w acc v = if v = 0 then acc else w (acc + 1) (v lsr 1) in
        w 0 n
      in
      let digits = Array.init ((nbits + 3) / 4) (fun i -> (n lsr (4 * i)) land 0xf) in
      let acc = ref identity in
      for i = Array.length digits - 1 downto 0 do
        if i < Array.length digits - 1 then
          for _ = 1 to 4 do
            acc := pdouble !acc
          done;
        let d = digits.(i) in
        if d <> 0 then acc := padd !acc tbl.(d)
      done;
      !acc
    end

  let double_mul s p t q =
    let es = Scalar.to_bigint s and et = Scalar.to_bigint t in
    if B.is_zero es then pmul t q
    else if B.is_zero et then pmul s p
    else begin
      scalarmuls := !scalarmuls + 2;
      let dss = Scalar.to_wnaf s and dts = Scalar.to_wnaf t in
      let tp = odd_multiples p and tq = odd_multiples q in
      let top = ref 255 in
      while !top >= 0 && dss.(!top) = 0 && dts.(!top) = 0 do
        decr top
      done;
      let acc = ref identity in
      for i = !top downto 0 do
        if i < !top then acc := pdouble !acc;
        let ds = dss.(i) in
        if ds > 0 then acc := padd !acc tp.((ds - 1) / 2)
        else if ds < 0 then acc := psub !acc tp.(((-ds) - 1) / 2);
        let dt = dts.(i) in
        if dt > 0 then acc := padd !acc tq.((dt - 1) / 2)
        else if dt < 0 then acc := psub !acc tq.(((-dt) - 1) / 2)
      done;
      !acc
    end

  (* fixed-base table: win.(w).(k) = (k+1) * 16^w * P *)
  let table_make p =
    let base = ref p in
    Array.init 64 (fun w ->
        let e1 = !base in
        let row = Array.make 8 e1 in
        row.(1) <- pdouble e1;
        for k = 2 to 7 do
          row.(k) <- padd row.(k - 1) e1
        done;
        if w < 63 then
          for _ = 1 to 4 do
            base := pdouble !base
          done;
        Array.map to_niels row)

  let signed_digits e =
    let raw = B.to_digits ~bits:4 ~count:64 e in
    let out = Array.make 64 0 in
    let carry = ref 0 in
    for w = 0 to 63 do
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
    out

  let table_mul win s =
    incr scalarmuls;
    let digits = signed_digits (Scalar.to_bigint s) in
    let acc = ref identity in
    for w = 0 to 63 do
      let d = digits.(w) in
      if d > 0 then acc := madd !acc win.(w).(d - 1)
      else if d < 0 then acc := msub !acc win.(w).((-d) - 1)
    done;
    !acc

  let table_mul_small win n =
    incr scalarmuls;
    if n = 0 then identity
    else begin
      let acc = ref identity in
      let w = ref 0 in
      let v = ref (abs n) in
      while !v <> 0 do
        let d0 = !v land 0xf in
        let d = if d0 >= 8 then d0 - 16 else d0 in
        if d > 0 then acc := madd !acc win.(!w).(d - 1)
        else if d < 0 then acc := msub !acc win.(!w).((-d) - 1);
        v := (!v - d) asr 4;
        incr w
      done;
      if n < 0 then pneg !acc else !acc
    end

  (* Pippenger over the same chunk layout as [Msm] *)
  let run_range ~c ~nwindows ~lo ~hi ~digits ~nls =
    let nbuckets = (1 lsl c) - 1 in
    let buckets = Array.make (nbuckets + 1) identity in
    let acc = ref identity in
    for w = nwindows - 1 downto 0 do
      if w < nwindows - 1 then
        for _ = 1 to c do
          acc := pdouble !acc
        done;
      Array.fill buckets 0 (nbuckets + 1) identity;
      let used = ref false in
      for i = lo to hi - 1 do
        let d = digits.(i).(w) in
        if d <> 0 then begin
          buckets.(d) <- madd buckets.(d) nls.(i);
          used := true
        end
      done;
      if !used then begin
        let running = ref identity in
        let total = ref identity in
        for d = nbuckets downto 1 do
          running := padd !running buckets.(d);
          total := padd !total !running
        done;
        acc := padd !acc !total
      end
    done;
    !acc

  let chunk_bounds ~jobs n =
    let k = Parallel.chunk_count ~jobs ~min_chunk:Msm.seq_cutoff n in
    let base = n / k and extra = n mod k in
    let lo = ref 0 in
    Array.init k (fun c ->
        let len = base + if c < extra then 1 else 0 in
        let b = (!lo, !lo + len) in
        lo := !lo + len;
        b)

  let run ~jobs ~c ~nwindows ~digits ~points =
    let nls = Array.map to_niels points in
    let partials =
      Array.map (fun (lo, hi) -> run_range ~c ~nwindows ~lo ~hi ~digits ~nls) (chunk_bounds ~jobs (Array.length points))
    in
    Parallel.tree_combine padd partials

  (* the seed's window size: c = floor(log2 n) - 1, clamped to [1, 16] *)
  let window_bits n =
    if n <= 1 then 1
    else begin
      let rec lg acc v = if v <= 1 then acc else lg (acc + 1) (v lsr 1) in
      Stdlib.max 1 (Stdlib.min 16 (lg 0 n - 1))
    end

  let chunk_window ~jobs n =
    let k = Array.length (chunk_bounds ~jobs n) in
    window_bits ((n + k - 1) / k)

  let msm ~jobs pairs =
    let n = Array.length pairs in
    if n = 0 then identity
    else begin
      let c = chunk_window ~jobs n in
      let nwindows = (256 + c - 1) / c in
      let digits = Array.map (fun (s, _) -> B.to_digits ~bits:c ~count:nwindows (Scalar.to_bigint s)) pairs in
      run ~jobs ~c ~nwindows ~digits ~points:(Array.map snd pairs)
    end

  let msm_small ~jobs pairs =
    let n = Array.length pairs in
    if n = 0 then identity
    else begin
      let c = chunk_window ~jobs n in
      let exps = Array.map (fun (e, _) -> abs e) pairs in
      let pts = Array.map (fun (e, p) -> if e < 0 then pneg p else p) pairs in
      let maxe = Array.fold_left Stdlib.max 0 exps in
      let rec lg acc v = if v = 0 then acc else lg (acc + 1) (v lsr 1) in
      let bits = Stdlib.max 1 (lg 0 maxe) in
      let nwindows = (bits + c - 1) / c in
      let mask = (1 lsl c) - 1 in
      let digits = Array.map (fun e -> Array.init nwindows (fun w -> (e lsr (w * c)) land mask)) exps in
      run ~jobs ~c ~nwindows ~digits ~points:pts
    end

  (* [f ()] and the operations it counted *)
  let count f =
    adds := 0;
    doubles := 0;
    madds := 0;
    scalarmuls := 0;
    let r = f () in
    (r, [ !adds; !doubles; !madds; !scalarmuls ])
end

(* --- field kernels vs the seed --- *)

let limb_offsets = [| 0; 26; 51; 77; 102; 128; 153; 179; 204; 230 |]

(* the integer a limb array denotes, reduced mod p *)
let limbs_value a =
  let v = ref B.zero in
  Array.iteri (fun i l -> v := B.add !v (B.shift_left (B.of_int l) limb_offsets.(i))) a;
  B.erem !v Fe.p

(* limbs with |even| <= k * 2^25 and |odd| <= k * 2^24: k carried values
   summed; the point formulas feed mul sums of up to three *)
let rand_limbs k =
  Array.init 10 (fun i ->
      let b = k * if i land 1 = 0 then 1 lsl 25 else 1 lsl 24 in
      Prng.Drbg.uniform_int drbg ((2 * b) + 1) - b)

let extreme_limbs k sign = Array.init 10 (fun i -> sign i * k * if i land 1 = 0 then 1 lsl 25 else 1 lsl 24)

let fe_inputs =
  List.concat_map (fun k -> List.init 20 (fun _ -> rand_limbs k)) [ 1; 2; 3 ]
  @ List.concat_map
      (fun k -> List.map (extreme_limbs k) [ (fun _ -> 1); (fun _ -> -1); (fun i -> if i land 1 = 0 then 1 else -1) ])
      [ 1; 2; 3 ]

let test_fe_vs_reference () =
  let check_limbs msg expected got = Alcotest.(check (array int)) msg expected (Fe.to_limbs got) in
  (* [op_into] into a fresh destination, into each input, and into both *)
  let check_into2 name reference into a b =
    let expected = reference a b in
    let h = Fe.create () in
    into h (Fe.of_limbs a) (Fe.of_limbs b);
    check_limbs (name ^ "_into") expected h;
    let fa = Fe.of_limbs a in
    into fa fa (Fe.of_limbs b);
    check_limbs (name ^ "_into h == f") expected fa;
    let fb = Fe.of_limbs b in
    into fb (Fe.of_limbs a) fb;
    check_limbs (name ^ "_into h == g") expected fb;
    let self = reference a a and fa = Fe.of_limbs a in
    into fa fa fa;
    check_limbs (name ^ "_into h == f == g") self fa
  in
  let check_into1 name reference into a =
    let expected = reference a in
    let h = Fe.create () in
    into h (Fe.of_limbs a);
    check_limbs (name ^ "_into") expected h;
    let fa = Fe.of_limbs a in
    into fa fa;
    check_limbs (name ^ "_into h == f") expected fa
  in
  let inputs = Array.of_list fe_inputs in
  Array.iteri
    (fun i a ->
      let b = inputs.((i * 7 + 3) mod Array.length inputs) in
      let fa = Fe.of_limbs a and fb = Fe.of_limbs b in
      check_limbs "add" (Reference.add a b) (Fe.add fa fb);
      check_limbs "sub" (Reference.sub a b) (Fe.sub fa fb);
      check_limbs "neg" (Reference.neg a) (Fe.neg fa);
      check_limbs "mul" (Reference.mul a b) (Fe.mul fa fb);
      check_limbs "square" (Reference.square a) (Fe.square fa);
      check_limbs "mul_small" (Reference.mul_small a 121666) (Fe.mul_small fa 121666);
      check_into2 "add" Reference.add Fe.add_into a b;
      check_into2 "sub" Reference.sub Fe.sub_into a b;
      check_into2 "mul" Reference.mul Fe.mul_into a b;
      check_into1 "neg" Reference.neg Fe.neg_into a;
      check_into1 "square" Reference.square Fe.square_into a;
      check_into1 "mul_small" (fun a -> Reference.mul_small a 2) (fun h f -> Fe.mul_small_into h f 2) a;
      (* and no overflow: the products are right mod p *)
      let va = limbs_value a and vb = limbs_value b in
      Alcotest.(check string) "mul value" (B.to_hex (B.erem (B.mul va vb) Fe.p)) (B.to_hex (Fe.to_bigint (Fe.mul fa fb)));
      Alcotest.(check string) "square value" (B.to_hex (B.erem (B.mul va va) Fe.p)) (B.to_hex (Fe.to_bigint (Fe.square fa))))
    inputs;
  let a = Fe.to_limbs (rand_fe ()) in
  let fa = Fe.of_limbs a in
  Alcotest.(check bytes) "invert" (Fe.to_bytes (Fe.invert fa)) (Fe.to_bytes (Fe.invert (Fe.copy fa)));
  Alcotest.(check string) "invert value" (B.to_hex (B.mod_inv (limbs_value a) Fe.p)) (B.to_hex (Fe.to_bigint (Fe.invert fa)));
  let c = Fe.copy fa in
  Fe.copy_into c Fe.one;
  Alcotest.(check (array int)) "copy_into leaves the source" a (Fe.to_limbs fa);
  Alcotest.(check (array int)) "copy_into" (Fe.to_limbs Fe.one) (Fe.to_limbs c)

(* the addition chains of invert and pow_p58 against Bigint, on edge
   values (zero included), random values and the widest carried limbs the
   point formulas feed them; the batch inversion against single ones *)
let test_chains_vs_bigint () =
  let hex x = B.to_hex x in
  let p58 = B.shift_right (B.sub Fe.p (B.of_int 5)) 3 in
  let inputs =
    List.map Fe.of_bigint [ B.zero; B.one; B.sub Fe.p B.one; B.of_int 2; B.of_int 19 ]
    @ List.init 20 (fun _ -> rand_fe ())
    @ List.map Fe.of_limbs fe_inputs
  in
  List.iter
    (fun x ->
      let limbs = Fe.to_limbs x and v = Fe.to_bigint x in
      let inv = if B.is_zero v then B.zero else B.mod_inv v Fe.p in
      Alcotest.(check string) ("invert " ^ hex v) (hex inv) (hex (Fe.to_bigint (Fe.invert x)));
      Alcotest.(check string) ("pow_p58 " ^ hex v) (hex (B.mod_pow v p58 Fe.p)) (hex (Fe.to_bigint (Fe.pow_p58 x)));
      Alcotest.(check (array int)) "input untouched" limbs (Fe.to_limbs x))
    inputs;
  (* the batch, with zeros at both ends and inside, matches one by one *)
  let batch = Array.of_list ((Fe.zero :: inputs) @ [ Fe.zero ]) in
  Array.iteri
    (fun i inv -> Alcotest.(check string) (Printf.sprintf "invert_batch %d" i) (hex (Fe.to_bigint (Fe.invert batch.(i)))) (hex (Fe.to_bigint inv)))
    (Fe.invert_batch batch);
  Alcotest.(check string) "sqrt_m1 = 2^((p-1)/4)"
    (hex (B.mod_pow B.two (B.shift_right (B.sub Fe.p B.one) 2) Fe.p))
    (hex (Fe.to_bigint Fe.sqrt_m1))

(* --- point kernels vs the seed: bytes and op counts --- *)

let op_counters = [ "point.add"; "point.double"; "point.madd"; "point.scalarmul" ]

(* [f ()] and the op-counter deltas it caused *)
let count_ops f =
  let cells = List.map Telemetry.Counter.make op_counters in
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Telemetry.disable ()) @@ fun () ->
  let before = List.map Telemetry.Counter.value cells in
  let r = f () in
  (r, List.map2 (fun c b -> Telemetry.Counter.value c - b) cells before)

let with_jobs j f =
  let saved = Parallel.default_jobs () in
  Parallel.set_default_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_default_jobs saved) f

(* same compressed bytes and the same op counts as the seed *)
let check_vs_reference name ~reference f =
  let expected, ref_ops = Reference.count reference in
  let got, ops = count_ops f in
  Alcotest.(check bytes) (name ^ " bytes") (Reference.compress expected) (Point.compress got);
  Alcotest.(check (list int)) (name ^ " add/double/madd/scalarmul") ref_ops ops

let edge_scalars =
  [ Scalar.zero; Scalar.one; Scalar.of_int 15; Scalar.of_int 16; Scalar.neg Scalar.one;
    Scalar.of_bigint (B.sub Scalar.order B.one) ]

let small_exponents = [ 0; 1; -1; 7; -8; 8; 15; 16; -16; 255; -255; 65535; -65536; max_int; -max_int ]

let test_points_vs_reference () =
  let pts = [ Point.identity; Point.base; rand_point (); rand_point () ] in
  let scalars = edge_scalars @ List.init 6 (fun _ -> rand_scalar ()) in
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      let tag name = Printf.sprintf "%s jobs=%d" name jobs in
      List.iter
        (fun p ->
          let rp = Reference.of_point p in
          let q = rand_point () in
          let rq = Reference.of_point q in
          let nq = (Point.to_niels_batch [| q |]).(0) and rnq = Reference.to_niels rq in
          check_vs_reference (tag "add") ~reference:(fun () -> Reference.padd rp rq) (fun () -> Point.add p q);
          check_vs_reference (tag "sub") ~reference:(fun () -> Reference.psub rp rq) (fun () -> Point.sub p q);
          check_vs_reference (tag "double") ~reference:(fun () -> Reference.pdouble rp) (fun () -> Point.double p);
          check_vs_reference (tag "madd") ~reference:(fun () -> Reference.madd rp rnq) (fun () -> Point.madd p nq);
          check_vs_reference (tag "msub") ~reference:(fun () -> Reference.msub rp rnq) (fun () -> Point.msub p nq);
          List.iter
            (fun s ->
              check_vs_reference (tag "mul") ~reference:(fun () -> Reference.pmul s rp) (fun () -> Point.mul s p))
            scalars;
          List.iter
            (fun n ->
              check_vs_reference
                (tag (Printf.sprintf "mul_small %d" n))
                ~reference:(fun () -> Reference.pmul_small n rp)
                (fun () -> Point.mul_small n p))
            (min_int :: small_exponents);
          List.iter
            (fun (s, t) ->
              check_vs_reference (tag "double_mul")
                ~reference:(fun () -> Reference.double_mul s rp t rq)
                (fun () -> Point.double_mul s p t q))
            (List.combine scalars (List.rev scalars)))
        pts;
      let p = rand_point () in
      let tbl = Point.Table.make p and rtbl = Reference.table_make (Reference.of_point p) in
      List.iter
        (fun s ->
          check_vs_reference (tag "Table.mul") ~reference:(fun () -> Reference.table_mul rtbl s) (fun () ->
              Point.Table.mul tbl s))
        scalars;
      List.iter
        (fun n ->
          check_vs_reference
            (tag (Printf.sprintf "Table.mul_small %d" n))
            ~reference:(fun () -> Reference.table_mul_small rtbl n)
            (fun () -> Point.Table.mul_small tbl n))
        small_exponents)
    [ 1; 2; 4 ]

(* --- signed-digit Pippenger vs the seed: same bytes, fewer additions ---

   The MSM computes the same group elements as the seed's unsigned
   Pippenger ([Reference.msm]) with different operations, so its counts
   are pinned exactly (they repeat for fixed inputs) and its point.add
   count must not exceed the seed's. *)

(* [f ()]'s result against the seed's, and both op-count lists *)
let vs_seed name ~reference f =
  let expected, ref_ops = Reference.count reference in
  let got, ops = count_ops f in
  Alcotest.(check bytes) (name ^ " bytes") (Reference.compress expected) (Point.compress got);
  Alcotest.(check bool)
    (Printf.sprintf "%s point.add %d <= seed %d" name (List.hd ops) (List.hd ref_ops))
    true
    (List.hd ops <= List.hd ref_ops);
  ops

(* Σ_w digit * 2^(c w) over the c-bit windows below 2^bits *)
let repeated_digit ~bits ~c digit =
  let v = ref B.zero in
  for w = 0 to (bits / c) - 1 do
    v := B.add !v (B.shift_left (B.of_int digit) (c * w))
  done;
  !v

(* Exponents below 2^bits whose signed recoding carries for some window
   size c the library can pick: every unsigned digit 2^(c-1) (the largest
   digit that needs no borrow), every digit 2^(c-1) + 1 (each borrows, and
   the borrow runs into the top window), and all ones. *)
let carry_exponents ~bits =
  B.sub (B.shift_left B.one bits) B.one
  :: List.concat_map
       (fun c ->
         let half = 1 lsl (c - 1) in
         repeated_digit ~bits ~c half :: (if c >= 2 then [ repeated_digit ~bits ~c (half + 1) ] else []))
       (List.init 20 (fun i -> i + 1))

let carry_scalars =
  Scalar.zero :: Scalar.one
  :: Scalar.of_bigint (B.sub Scalar.order B.one)
  :: List.map Scalar.of_bigint (carry_exponents ~bits:252)

let carry_small =
  0 :: 1 :: -1 :: max_int :: -max_int
  :: List.concat_map (fun e -> let e = B.to_int e in [ e; -e ]) (carry_exponents ~bits:62)

(* Exact (point.add, point.double, point.madd, point.scalarmul) of msm
   and msm_small on the grid below, per job count.  At 2100 points, jobs
   2 and 4 split the MSM into two chunks. *)
let msm_pins =
  let same ms ss = List.map (fun jobs -> (jobs, ms, ss)) [ 1; 2; 4 ] in
  [
    (1, same [ 220; 250; 91; 0 ] [ 22; 28; 11; 0 ]);
    (2, same [ 207; 252; 91; 0 ] [ 25; 26; 11; 0 ]);
    (37, same [ 2613; 252; 1712; 0 ] [ 323; 60; 217; 0 ]);
    ( 2100,
      [
        (1, [ 65001; 248; 57066; 0 ], [ 11368; 54; 8739; 0 ]);
        (2, [ 72912; 496; 57066; 0 ], [ 12195; 112; 10404; 0 ]);
        (4, [ 72912; 496; 57066; 0 ], [ 12195; 112; 10404; 0 ]);
      ] );
  ]

let test_msm_vs_reference () =
  let d = Prng.Drbg.create_string "msm-vs-seed" in
  let point () = Point.mul_base (Scalar.random d) in
  (* every carry exponent alone and beside a random term *)
  let p = point () and q = point () in
  let rp = Reference.of_point p and rq = Reference.of_point q in
  let s = Scalar.random d and e = Prng.Drbg.uniform_int d (1 lsl 30) in
  List.iter
    (fun jobs ->
      List.iter
        (fun c ->
          let tag n = Printf.sprintf "msm %s n=%d jobs=%d" (B.to_hex (Scalar.to_bigint c)) n jobs in
          ignore (vs_seed (tag 1) ~reference:(fun () -> Reference.msm ~jobs [| (c, rp) |]) (fun () -> Msm.msm ~jobs [| (c, p) |]));
          ignore
            (vs_seed (tag 2)
               ~reference:(fun () -> Reference.msm ~jobs [| (s, rq); (c, rp) |])
               (fun () -> Msm.msm ~jobs [| (s, q); (c, p) |])))
        carry_scalars;
      List.iter
        (fun c ->
          let tag n = Printf.sprintf "msm_small %d n=%d jobs=%d" c n jobs in
          ignore
            (vs_seed (tag 1) ~reference:(fun () -> Reference.msm_small ~jobs [| (c, rp) |]) (fun () -> Msm.msm_small ~jobs [| (c, p) |]));
          ignore
            (vs_seed (tag 2)
               ~reference:(fun () -> Reference.msm_small ~jobs [| (e, rq); (c, rp) |])
               (fun () -> Msm.msm_small ~jobs [| (e, q); (c, p) |])))
        carry_small)
    [ 1; 2; 4 ];
  (* 2100 points split into two chunks at jobs 2 and 4, so the
     per-chunk accumulators and the cross-chunk combine are covered *)
  let pool = Array.init 2100 (fun i -> if i mod 97 = 5 then Point.identity else point ()) in
  let carry_scalars = Array.of_list carry_scalars and carry_small = Array.of_list carry_small in
  List.iter
    (fun (n, pins) ->
      let pts = Array.init n (fun i -> pool.(if i mod 13 = 7 then 0 else i)) in
      let rpts = Array.map Reference.of_point pts in
      let scalars =
        Array.init n (fun i ->
            if i mod 4 = 1 then carry_scalars.(i / 4 mod Array.length carry_scalars)
            else if i mod 11 = 3 then Scalar.zero
            else Scalar.random d)
      in
      let exps =
        Array.init n (fun i ->
            if i mod 4 = 1 then carry_small.(i / 4 mod Array.length carry_small)
            else Prng.Drbg.uniform_int d (1 lsl 30) - (1 lsl 29))
      in
      List.iter
        (fun (jobs, msm_ops, small_ops) ->
          let tag name = Printf.sprintf "%s n=%d jobs=%d" name n jobs in
          let ops =
            vs_seed (tag "msm")
              ~reference:(fun () -> Reference.msm ~jobs (Array.map2 (fun s p -> (s, p)) scalars rpts))
              (fun () -> Msm.msm ~jobs (Array.map2 (fun s p -> (s, p)) scalars pts))
          in
          let small =
            vs_seed (tag "msm_small")
              ~reference:(fun () -> Reference.msm_small ~jobs (Array.map2 (fun e p -> (e, p)) exps rpts))
              (fun () -> Msm.msm_small ~jobs (Array.map2 (fun e p -> (e, p)) exps pts))
          in
          Alcotest.(check (list int)) (tag "msm add/double/madd/scalarmul") msm_ops ops;
          Alcotest.(check (list int)) (tag "msm_small add/double/madd/scalarmul") small_ops small)
        pins)
    msm_pins

let test_msm_small_min_int () =
  let p = rand_point () and q = rand_point () in
  let raises pairs =
    match Msm.msm_small pairs with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "min_int alone" true (raises [| (min_int, p) |]);
  Alcotest.(check bool) "min_int among others" true (raises [| (3, q); (min_int, p); (-5, q) |]);
  (* the largest magnitudes that are representable still work *)
  check_point "max_int" (Point.mul_small max_int p) (Msm.msm_small [| (max_int, p) |]);
  check_point "-max_int" (Point.mul_small (-max_int) p) (Msm.msm_small [| (-max_int, p) |])

(* --- allocation budget ---

   Minor words allocated by one call at jobs=1; these repeat exactly for
   fixed inputs.  Before the kernels became in-place the same calls
   allocated: double_mul 74_706, mul 60_392, Table.mul 12_454, and a
   1024-point msm 12_886_750 words.  Each must now stay under a quarter
   of that. *)

let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. w0)

let test_alloc_budget () =
  with_jobs 1 @@ fun () ->
  let d = Prng.Drbg.create_string "alloc-budget" in
  let p = Point.mul_base (Scalar.random d) and q = Point.mul_base (Scalar.random d) in
  let s = Scalar.random d and t = Scalar.random d in
  let tbl = Point.Table.make p in
  let pairs = Array.init 1024 (fun _ -> (Scalar.random d, Point.mul_base (Scalar.random d))) in
  List.iter
    (fun (name, before, f) ->
      let w = minor_words f in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d minor words <= %d / 4" name w before)
        true
        (4 * w <= before))
    [
      ("double_mul", 74_706, fun () -> Point.double_mul s p t q);
      ("mul", 60_392, fun () -> Point.mul s p);
      ("Table.mul", 12_454, fun () -> Point.Table.mul tbl s);
      ("msm 1024", 12_886_750, fun () -> Msm.msm ~jobs:1 pairs);
    ]

(* --- wNAF variable-base mul vs double-and-add --- *)

let mul_ref s p =
  (* plain MSB-first double-and-add over the scalar's bits *)
  let e = Scalar.to_bigint s in
  let acc = ref Point.identity in
  for i = B.bit_length e - 1 downto 0 do
    acc := Point.double !acc;
    if B.testbit e i then acc := Point.add !acc p
  done;
  !acc

let test_wnaf_digits () =
  for _ = 1 to 50 do
    let s = rand_scalar () in
    let digits = Scalar.to_wnaf s in
    Alcotest.(check int) "256 digits" 256 (Array.length digits);
    (* each digit zero or odd, |d| <= 15; the digit sum reconstructs s *)
    let acc = ref B.zero in
    for i = 255 downto 0 do
      let d = digits.(i) in
      Alcotest.(check bool) "digit odd or zero" true (d = 0 || abs d land 1 = 1);
      Alcotest.(check bool) "digit magnitude" true (abs d <= 15);
      acc := B.add (B.add !acc !acc) (B.of_int d)
    done;
    Alcotest.(check string) "digits sum to scalar"
      (B.to_hex (Scalar.to_bigint s))
      (B.to_hex (B.erem !acc Scalar.order))
  done

let test_wnaf_mul_matches_reference () =
  for _ = 1 to 25 do
    let s = rand_scalar () and p = rand_point () in
    check_point "wNAF mul == double-and-add" (mul_ref s p) (Point.mul s p)
  done;
  (* edge scalars *)
  List.iter
    (fun s ->
      let p = rand_point () in
      check_point "edge scalar" (mul_ref s p) (Point.mul s p))
    [ Scalar.zero; Scalar.one; Scalar.of_int 15; Scalar.of_int 16;
      Scalar.neg Scalar.one; Scalar.of_bigint (B.sub Scalar.order B.one) ]

let test_double_mul_matches () =
  for _ = 1 to 15 do
    let s = rand_scalar () and t = rand_scalar () in
    let p = rand_point () and q = rand_point () in
    check_point "double_mul == mul+mul"
      (Point.add (mul_ref s p) (mul_ref t q))
      (Point.double_mul s p t q)
  done

let test_table_matches () =
  let p = rand_point () in
  let tbl = Point.Table.make p in
  for _ = 1 to 25 do
    let s = rand_scalar () in
    check_point "Table.mul == reference" (mul_ref s p) (Point.Table.mul tbl s)
  done;
  List.iter
    (fun e ->
      check_point
        (Printf.sprintf "Table.mul_small %d" e)
        (Point.mul_small e p)
        (Point.Table.mul_small tbl e))
    [ 0; 1; -1; 7; -8; 8; 15; 16; -16; 255; -255; 65535; -65536; max_int / 2 ]

let test_msm_matches () =
  for _ = 1 to 5 do
    let n = 1 + Prng.Drbg.uniform_int drbg 40 in
    let pairs = Array.init n (fun _ -> (rand_scalar (), rand_point ())) in
    let reference =
      Array.fold_left (fun acc (s, p) -> Point.add acc (mul_ref s p)) Point.identity pairs
    in
    check_point "msm == sum of muls" reference (Msm.msm pairs);
    let small = Array.map (fun (_, p) -> (Prng.Drbg.uniform_int drbg 4000 - 2000, p)) pairs in
    let reference_small =
      Array.fold_left (fun acc (e, p) -> Point.add acc (Point.mul_small e p)) Point.identity small
    in
    check_point "msm_small == sum of mul_smalls" reference_small (Msm.msm_small small)
  done

(* --- Dlog edge cases --- *)

let test_dlog_zero_range () =
  (* max_abs = 0: only the identity is solvable *)
  let t = Dlog.create ~base:Point.base ~max_abs:0 () in
  Alcotest.(check (option int)) "identity solves to 0" (Some 0) (Dlog.solve t Point.identity);
  Alcotest.(check (option int)) "base is out of range" None (Dlog.solve t Point.base)

let test_dlog_extremes () =
  let max_abs = 1000 in
  let t = Dlog.create ~base:Point.base ~max_abs () in
  List.iter
    (fun x ->
      Alcotest.(check (option int))
        (Printf.sprintf "solve %d" x)
        (Some x)
        (Dlog.solve t (Point.mul_small x Point.base)))
    [ max_abs; -max_abs; max_abs - 1; -(max_abs - 1); 0; 1; -1 ];
  (* just out of range on both sides *)
  List.iter
    (fun x ->
      Alcotest.(check (option int))
        (Printf.sprintf "out of range %d" x)
        None
        (Dlog.solve t (Point.mul_small x Point.base)))
    [ max_abs + 1; -(max_abs + 1) ]

let test_dlog_identity_base () =
  (* base = identity: every baby key collides on compress(identity) and
     first-writer-wins must keep j = 0, so the identity target decodes
     to the centered representative and everything else returns None *)
  let t = Dlog.create ~base:Point.identity ~max_abs:50 () in
  (match Dlog.solve t Point.identity with
  | Some x -> Alcotest.(check bool) "identity target in range" true (abs x <= 50)
  | None -> Alcotest.fail "identity target must solve");
  Alcotest.(check (option int)) "non-multiple unsolvable" None (Dlog.solve t (rand_point ()))

let test_dlog_m_scale () =
  let max_abs = 2000 in
  let small = Dlog.create ~m_scale:0.25 ~base:Point.base ~max_abs () in
  let big = Dlog.create ~m_scale:4.0 ~base:Point.base ~max_abs () in
  Alcotest.(check bool) "m_scale scales the table" true
    (Dlog.table_size big > 4 * Dlog.table_size small);
  for _ = 1 to 20 do
    let x = Prng.Drbg.uniform_int drbg (2 * max_abs) - max_abs in
    let p = Point.mul_small x Point.base in
    Alcotest.(check (option int)) "small-table solve" (Some x) (Dlog.solve small p);
    Alcotest.(check (option int)) "big-table solve" (Some x) (Dlog.solve big p)
  done

let test_dlog_solve_many_jobs_invariant () =
  let max_abs = 3000 in
  let t = Dlog.create ~base:Point.base ~max_abs () in
  let xs = Array.init 64 (fun i -> ((i * 97) mod (2 * max_abs)) - max_abs) in
  let targets = Array.map (fun x -> Point.mul_small x Point.base) xs in
  let expected = Array.map (fun x -> Some x) xs in
  List.iter
    (fun jobs ->
      let solved = Dlog.solve_many ~jobs t targets in
      Alcotest.(check (array (option int)))
        (Printf.sprintf "solve_many at jobs=%d" jobs)
        expected solved)
    [ 1; 2; 4 ]

(* --- serialization + cache --- *)

let test_dlog_serialization_roundtrip () =
  let t = Dlog.create ~base:Point.base ~max_abs:500 () in
  let b = Dlog.to_bytes t in
  match Dlog.of_bytes ~base:Point.base b with
  | None -> Alcotest.fail "of_bytes rejected its own to_bytes"
  | Some t' ->
      Alcotest.(check bytes) "bit-identical reserialization" b (Dlog.to_bytes t');
      Alcotest.(check int) "same m" (Dlog.table_size t) (Dlog.table_size t');
      for x = -500 to 500 do
        if x mod 83 = 0 then
          Alcotest.(check (option int))
            (Printf.sprintf "loaded solver solves %d" x)
            (Some x)
            (Dlog.solve t' (Point.mul_small x Point.base))
      done

let test_dlog_of_bytes_rejects_garbage () =
  let t = Dlog.create ~base:Point.base ~max_abs:100 () in
  let good = Dlog.to_bytes t in
  let reject msg b =
    Alcotest.(check bool) msg true (Dlog.of_bytes ~base:Point.base b = None)
  in
  reject "empty" Bytes.empty;
  reject "truncated" (Bytes.sub good 0 (Bytes.length good - 7));
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  reject "bad magic" bad_magic;
  let bad_key = Bytes.copy good in
  (* flip a byte inside the j=0 key (the identity's compression) *)
  Bytes.set bad_key 12 (Char.chr (Char.code (Bytes.get bad_key 12) lxor 1));
  reject "corrupt identity entry" bad_key

let test_table_serialization_roundtrip () =
  let p = rand_point () in
  let tbl = Point.Table.make p in
  let b = Point.Table.to_bytes tbl in
  Alcotest.(check int) "serialized_size" Point.Table.serialized_size (Bytes.length b);
  (match Point.Table.of_bytes ~base:p b with
  | None -> Alcotest.fail "of_bytes rejected its own to_bytes"
  | Some tbl' ->
      Alcotest.(check bytes) "bit-identical reserialization" b (Point.Table.to_bytes tbl');
      for _ = 1 to 10 do
        let s = rand_scalar () in
        check_point "loaded table multiplies" (Point.Table.mul tbl s) (Point.Table.mul tbl' s)
      done);
  (* wrong base must be rejected even though the bytes are intact *)
  Alcotest.(check bool) "wrong base rejected" true
    (Point.Table.of_bytes ~base:(rand_point ()) b = None);
  let truncated = Bytes.sub b 0 (Bytes.length b - 1) in
  Alcotest.(check bool) "truncated rejected" true (Point.Table.of_bytes ~base:p truncated = None)

let test_cache_roundtrip_and_corruption () =
  with_temp_dir @@ fun dir ->
  let c = Cache.open_ ~dir in
  Alcotest.(check (option bytes)) "missing key" None (Cache.load c ~key:"nope");
  let payload = Bytes.of_string "hello group tables" in
  Cache.save c ~key:"k1" payload;
  Alcotest.(check (option bytes)) "round-trip" (Some payload) (Cache.load c ~key:"k1");
  Cache.save c ~key:"k1" (Bytes.of_string "v2");
  Alcotest.(check (option bytes)) "overwrite" (Some (Bytes.of_string "v2")) (Cache.load c ~key:"k1");
  (* corrupt / truncate every cache file: loads must turn into misses *)
  Cache.save c ~key:"k2" payload;
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (len / 2) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
      Unix.close fd)
    (Sys.readdir dir);
  Alcotest.(check (option bytes)) "corrupt k1 is a miss" None (Cache.load c ~key:"k1");
  Alcotest.(check (option bytes)) "corrupt k2 is a miss" None (Cache.load c ~key:"k2");
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (len / 3);
      Unix.close fd)
    (Sys.readdir dir);
  Alcotest.(check (option bytes)) "truncated is a miss" None (Cache.load c ~key:"k1");
  (* a save after corruption heals the entry *)
  Cache.save c ~key:"k1" payload;
  Alcotest.(check (option bytes)) "healed" (Some payload) (Cache.load c ~key:"k1")

let test_group_cache_bit_identity () =
  with_temp_dir @@ fun dir ->
  let cache = Cache.open_ ~dir in
  let base = rand_point () in
  let max_abs = 700 in
  (* first call builds + saves; second loads; both must serialize equal *)
  let built = Group_cache.dlog ~cache ~base ~max_abs () in
  let loaded = Group_cache.dlog ~cache ~base ~max_abs () in
  Alcotest.(check bytes) "dlog cached == built" (Dlog.to_bytes built) (Dlog.to_bytes loaded);
  let tb = Group_cache.table ~cache ~label:"t" ~base () in
  let tl = Group_cache.table ~cache ~label:"t" ~base () in
  Alcotest.(check bytes) "table cached == built" (Point.Table.to_bytes tb)
    (Point.Table.to_bytes tl);
  for x = -max_abs to max_abs do
    if x mod 131 = 0 then
      Alcotest.(check (option int))
        (Printf.sprintf "loaded dlog solves %d" x)
        (Some x)
        (Dlog.solve loaded (Point.mul_small x base))
  done;
  (* corrupt every cache file: constructors must rebuild, not fail *)
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd 7;
      Unix.close fd)
    (Sys.readdir dir);
  let rebuilt = Group_cache.dlog ~cache ~base ~max_abs () in
  Alcotest.(check bytes) "rebuilt after corruption" (Dlog.to_bytes built) (Dlog.to_bytes rebuilt);
  let trebuilt = Group_cache.table ~cache ~label:"t" ~base () in
  Alcotest.(check bytes) "table rebuilt after corruption" (Point.Table.to_bytes tb)
    (Point.Table.to_bytes trebuilt)

let () =
  Alcotest.run "group-fast"
    [
      ( "kernels",
        [
          Alcotest.test_case "fe ops vs seed limbs" `Quick test_fe_vs_reference;
          Alcotest.test_case "invert, pow_p58 vs Bigint" `Quick test_chains_vs_bigint;
          Alcotest.test_case "point ops vs seed" `Quick test_points_vs_reference;
          Alcotest.test_case "msm vs seed" `Quick test_msm_vs_reference;
          Alcotest.test_case "msm_small rejects min_int" `Quick test_msm_small_min_int;
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
        ] );
      ( "wnaf",
        [
          Alcotest.test_case "digit invariants + reconstruction" `Quick test_wnaf_digits;
          Alcotest.test_case "mul vs double-and-add" `Quick test_wnaf_mul_matches_reference;
          Alcotest.test_case "double_mul" `Quick test_double_mul_matches;
          Alcotest.test_case "fixed-base table" `Quick test_table_matches;
          Alcotest.test_case "msm differential" `Quick test_msm_matches;
        ] );
      ( "dlog",
        [
          Alcotest.test_case "max_abs = 0" `Quick test_dlog_zero_range;
          Alcotest.test_case "extremes and out-of-range" `Quick test_dlog_extremes;
          Alcotest.test_case "identity base (colliding keys)" `Quick test_dlog_identity_base;
          Alcotest.test_case "m_scale knob" `Quick test_dlog_m_scale;
          Alcotest.test_case "solve_many jobs-invariant" `Quick test_dlog_solve_many_jobs_invariant;
        ] );
      ( "cache",
        [
          Alcotest.test_case "dlog serialization round-trip" `Quick test_dlog_serialization_roundtrip;
          Alcotest.test_case "dlog rejects garbage" `Quick test_dlog_of_bytes_rejects_garbage;
          Alcotest.test_case "table serialization round-trip" `Quick test_table_serialization_roundtrip;
          Alcotest.test_case "cache round-trip + corruption" `Quick test_cache_roundtrip_and_corruption;
          Alcotest.test_case "cached vs rebuilt bit-identity" `Quick test_group_cache_bit_identity;
        ] );
    ]
