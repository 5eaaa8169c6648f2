module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Msm = Curve25519.Msm

type proof = { ls : Point.t array; rs : Point.t array; a : Scalar.t; b : Scalar.t }

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Each round halves the live prefix of the working vectors. A fold writes
   index i from indices i and i + half only, so after the first round
   (which reads the caller's arrays) the folds run in place over one set
   of half-length buffers, chunked across the pool by index. L and R are
   independent MSMs and run as two tasks. Transcript appends and
   challenges stay on the calling domain, in protocol order, so the proof
   bytes do not depend on the job count. *)
let prove ?h_factors tr ~g ~h ~u ~a ~b =
  let n = Array.length g in
  if not (is_pow2 n) then invalid_arg "Ipa.prove: length must be a power of two";
  if Array.length h <> n || Array.length a <> n || Array.length b <> n then
    invalid_arg "Ipa.prove: length mismatch";
  (match h_factors with
  | Some f when Array.length f <> n -> invalid_arg "Ipa.prove: length mismatch"
  | _ -> ());
  let a = Array.copy a and b = Array.copy b in
  let gd = Array.make (n / 2) Point.identity and hd = Array.make (n / 2) Point.identity in
  let gs = ref g and hs = ref h and factors = ref h_factors in
  let ls = ref [] and rs = ref [] in
  let len = ref n in
  while !len > 1 do
    let half = !len / 2 in
    let g = !gs and h = !hs in
    (* the coefficient b_k of generator h_j, times h_j's factor in the first round *)
    let hcoef k j = match !factors with Some f -> Scalar.mul b.(k) f.(j) | None -> b.(k) in
    let cross side =
      (* side 0: L = g_hi^{a_lo} h_lo^{b_hi} u^{<a_lo, b_hi>}; side 1: R, the mirror *)
      let lo, hi = if side = 0 then (0, half) else (half, 0) in
      let c = ref Scalar.zero in
      for i = 0 to half - 1 do
        c := Scalar.add !c (Scalar.mul a.(lo + i) b.(hi + i))
      done;
      Msm.msm
        (Array.init ((2 * half) + 1) (fun i ->
             if i < half then (a.(lo + i), g.(hi + i))
             else if i < 2 * half then
               let i = i - half in
               (hcoef (hi + i) (lo + i), h.(lo + i))
             else (!c, u)))
    in
    let lr = Parallel.parallel_init 2 cross in
    Transcript.append_point tr ~label:"ipa/L" lr.(0);
    Transcript.append_point tr ~label:"ipa/R" lr.(1);
    ls := lr.(0) :: !ls;
    rs := lr.(1) :: !rs;
    let x = Transcript.challenge_nonzero tr ~label:"ipa/x" in
    let xinv = Scalar.inv x in
    let hx, hxinv =
      match !factors with
      | Some f -> ((fun i -> Scalar.mul x f.(i)), fun i -> Scalar.mul xinv f.(half + i))
      | None -> ((fun _ -> x), fun _ -> xinv)
    in
    Parallel.parallel_for ~lo:0 ~hi:half (fun lo hi ->
        for i = lo to hi - 1 do
          gd.(i) <- Point.double_mul xinv g.(i) x g.(half + i);
          hd.(i) <- Point.double_mul (hx i) h.(i) (hxinv i) h.(half + i)
        done);
    for i = 0 to half - 1 do
      a.(i) <- Scalar.add (Scalar.mul a.(i) x) (Scalar.mul a.(half + i) xinv);
      b.(i) <- Scalar.add (Scalar.mul b.(i) xinv) (Scalar.mul b.(half + i) x)
    done;
    gs := gd;
    hs := hd;
    factors := None;
    len := half
  done;
  { ls = Array.of_list (List.rev !ls); rs = Array.of_list (List.rev !rs); a = a.(0); b = b.(0) }

let verify tr ~g ~h ~u ~p proof =
  let n = Array.length g in
  if not (is_pow2 n) || Array.length h <> n then false
  else begin
    let rounds = Array.length proof.ls in
    if Array.length proof.rs <> rounds || 1 lsl rounds <> n then false
    else begin
      (* replay the challenges *)
      let xs = Array.make rounds Scalar.zero in
      for j = 0 to rounds - 1 do
        Transcript.append_point tr ~label:"ipa/L" proof.ls.(j);
        Transcript.append_point tr ~label:"ipa/R" proof.rs.(j);
        xs.(j) <- Transcript.challenge_nonzero tr ~label:"ipa/x"
      done;
      let xinvs = Array.map Scalar.inv xs in
      (* s_i = prod_j x_j^{eps(i,j)}: eps = +1 when bit (rounds-1-j) of i is
         set (round j splits on that bit), else -1 *)
      let s = Array.make n Scalar.one in
      for i = 0 to n - 1 do
        let acc = ref Scalar.one in
        for j = 0 to rounds - 1 do
          let bit = (i lsr (rounds - 1 - j)) land 1 in
          acc := Scalar.mul !acc (if bit = 1 then xs.(j) else xinvs.(j))
        done;
        s.(i) <- !acc
      done;
      (* check: P * prod L_j^{x_j^2} R_j^{x_j^-2} = g^{a s} h^{b / s} u^{ab}
         rearranged into a single MSM equal to the identity. *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        pairs := (Scalar.mul proof.a s.(i), g.(i)) :: !pairs;
        (* s_{n-1-i} has every challenge exponent flipped, so it IS 1/s_i *)
        pairs := (Scalar.mul proof.b s.(n - 1 - i), h.(i)) :: !pairs
      done;
      pairs := (Scalar.mul proof.a proof.b, u) :: !pairs;
      for j = 0 to rounds - 1 do
        pairs := (Scalar.neg (Scalar.square xs.(j)), proof.ls.(j)) :: !pairs;
        pairs := (Scalar.neg (Scalar.square xinvs.(j)), proof.rs.(j)) :: !pairs
      done;
      let rhs = Msm.msm (Array.of_list !pairs) in
      Point.equal rhs p
    end
  end

(* RLC form of [verify] for batch verification. The whole IPA check is a
   single point equation; [rho] is its random batching coefficient. Base
   coefficients are handed back by index ([push_g i c] means "add c·g_i",
   likewise [push_h]/[push_u]) so the range-proof layer can merge them
   with its own per-index coefficients (folding the h'_i = h_i^{y^{-i}}
   reindexing into scalars instead of materializing nt point
   multiplications); L/R cross terms go straight to [push]. The caller
   must push -rho·P itself. Transcript replay is identical to [verify];
   structural mismatches return false without absorbing, like [verify]. *)
let accumulate ~rho ~push_g ~push_h ~push_u ~push tr ~n proof =
  if not (is_pow2 n) then false
  else begin
    let rounds = Array.length proof.ls in
    if Array.length proof.rs <> rounds || 1 lsl rounds <> n then false
    else begin
      let xs = Array.make rounds Scalar.zero in
      for j = 0 to rounds - 1 do
        Transcript.append_point tr ~label:"ipa/L" proof.ls.(j);
        Transcript.append_point tr ~label:"ipa/R" proof.rs.(j);
        xs.(j) <- Transcript.challenge_nonzero tr ~label:"ipa/x"
      done;
      let xinvs = Array.map Scalar.inv xs in
      let s = Array.make n Scalar.one in
      for i = 0 to n - 1 do
        let acc = ref Scalar.one in
        for j = 0 to rounds - 1 do
          let bit = (i lsr (rounds - 1 - j)) land 1 in
          acc := Scalar.mul !acc (if bit = 1 then xs.(j) else xinvs.(j))
        done;
        s.(i) <- !acc
      done;
      let ra = Scalar.mul rho proof.a and rb = Scalar.mul rho proof.b in
      for i = 0 to n - 1 do
        push_g i (Scalar.mul ra s.(i));
        push_h i (Scalar.mul rb s.(n - 1 - i))
      done;
      push_u (Scalar.mul ra proof.b);
      for j = 0 to rounds - 1 do
        push (Scalar.neg (Scalar.mul rho (Scalar.square xs.(j)))) proof.ls.(j);
        push (Scalar.neg (Scalar.mul rho (Scalar.square xinvs.(j)))) proof.rs.(j)
      done;
      true
    end
  end

let size_bytes p = (32 * (Array.length p.ls + Array.length p.rs)) + 64
