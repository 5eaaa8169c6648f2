(* Pippenger bucket multi-scalar multiplication.

   Two optimizations over the textbook loop:

   - each scalar's little-endian c-bit digit array is extracted once up
     front with [Bigint.to_digits] (one limb pass per scalar) instead of
     re-probing [Bigint.testbit] c times per point per window — a pure
     win even sequentially;

   - the point set is split into per-domain chunks, each chunk runs the
     full windowed bucket accumulation independently, and the partial
     sums are merged with log(chunks) point additions. Partials combine
     in fixed chunk order, so the result is the same group element for
     every job count. *)

let window_bits n =
  if n <= 1 then 1
  else begin
    (* c ~ log2 n - 2, clamped; standard heuristic minimizing
       (b/c) * (n + 2^c) additions *)
    let rec lg acc v = if v <= 1 then acc else lg (acc + 1) (v lsr 1) in
    Stdlib.max 1 (Stdlib.min 16 (lg 0 n - 1))
  end

(* Bucket accumulation over the point range [lo, hi): [digits.(i).(w)] is
   the w-th c-bit digit of exponent i; [nls.(i)] the (sign-adjusted) base
   in mixed-affine Niels form, so every bucket addition is a 7-mul madd
   instead of a 9-mul extended addition.  The conversion happens once per
   MSM evaluation (one Montgomery inversion over all input points) before
   the chunks fan out — see [run].  The buckets, the two suffix sums and
   the window accumulator are in-place accumulators owned by this chunk,
   so the loops allocate nothing; only the final sum is copied out. *)
let run_range ~c ~nwindows ~lo ~hi ~digits ~nls =
  let nbuckets = (1 lsl c) - 1 in
  let sc = Point.Mut.scratch () in
  let buckets = Array.init (nbuckets + 1) (fun _ -> Point.Mut.identity ()) in
  let running = Point.Mut.identity () and total = Point.Mut.identity () in
  let acc = Point.Mut.identity () in
  for w = nwindows - 1 downto 0 do
    (* only the last doubling of the chain computes T, which the window
       addition below reads *)
    if w < nwindows - 1 then
      for k = 1 to c do
        Point.Mut.double sc acc ~with_t:(k = c)
      done;
    Array.iter Point.Mut.set_identity buckets;
    let used = ref false in
    for i = lo to hi - 1 do
      let d = digits.(i).(w) in
      if d <> 0 then begin
        Point.Mut.madd sc buckets.(d) nls.(i);
        used := true
      end
    done;
    if !used then begin
      (* sum_{d} d * bucket_d via suffix sums *)
      Point.Mut.set_identity running;
      Point.Mut.set_identity total;
      for d = nbuckets downto 1 do
        Point.Mut.add sc running buckets.(d);
        Point.Mut.add sc total running
      done;
      Point.Mut.add sc acc total
    end
  done;
  Point.Mut.freeze acc

(* Sequential cutoff: each chunk pays fixed costs that are independent of
   its point count — a full doubling chain across every window plus a
   suffix-sum pass over all 2^c buckets per window. Below ~1k points per
   chunk those fixed costs dominate the per-point bucket additions, so
   fanning out across domains is a net loss (BENCH_RISEFL.json showed
   msm-full at n=256 5x slower at jobs=2 than jobs=1). Capping the chunk
   count so every chunk keeps at least this many points makes small MSMs
   run sequentially at any job count. *)
let seq_cutoff = 1024

(* The window size is chosen from the per-chunk point count, not the
   total: each chunk runs its own bucket accumulation, so oversizing c
   from the global n would blow up the per-chunk suffix-sum cost. *)
let chunk_window ?jobs n =
  let nchunks = Parallel.chunk_count ?jobs ~min_chunk:seq_cutoff n in
  window_bits ((n + nchunks - 1) / nchunks)

let c_evals = Telemetry.Counter.make "msm.evals"
let c_points = Telemetry.Counter.make "msm.points"
let c_window = Telemetry.Counter.make "msm.window_bits"
let c_chunks = Telemetry.Counter.make "msm.chunks"

let run ?jobs ~c ~nwindows ~npoints ~digits ~points () =
  Telemetry.Counter.incr c_evals;
  Telemetry.Counter.add c_points npoints;
  Telemetry.Counter.add c_window c;
  (* batched-affine flush: one shared inversion converts every input to
     Niels form; each chunk then reads the (immutable) array freely *)
  let nls = Point.to_niels_batch points in
  let partials =
    Parallel.map_chunks ?jobs ~min_chunk:seq_cutoff ~n:npoints (fun lo hi ->
        run_range ~c ~nwindows ~lo ~hi ~digits ~nls)
  in
  Telemetry.Counter.add c_chunks (Array.length partials);
  if Array.length partials = 0 then Point.identity
  else Parallel.tree_combine Point.add partials

let msm ?jobs pairs =
  let n = Array.length pairs in
  if n = 0 then Point.identity
  else begin
    let c = chunk_window ?jobs n in
    let nwindows = (256 + c - 1) / c in
    let digits =
      Array.map (fun (s, _) -> Bigint.to_digits ~bits:c ~count:nwindows (Scalar.to_bigint s)) pairs
    in
    run ?jobs ~c ~nwindows ~npoints:n ~digits ~points:(Array.map snd pairs) ()
  end

let msm_small ?jobs pairs =
  let n = Array.length pairs in
  (* abs min_int is negative: its digits would all read as zero *)
  if Array.exists (fun (e, _) -> e = min_int) pairs then
    invalid_arg "Msm.msm_small: exponent out of range";
  if n = 0 then Point.identity
  else begin
    let c = chunk_window ?jobs n in
    (* sign-fold: negative exponents negate the base *)
    let exps = Array.map (fun (e, _) -> abs e) pairs in
    let pts = Array.map (fun (e, p) -> if e < 0 then Point.neg p else p) pairs in
    let maxe = Array.fold_left Stdlib.max 0 exps in
    let rec lg acc v = if v = 0 then acc else lg (acc + 1) (v lsr 1) in
    let bits = Stdlib.max 1 (lg 0 maxe) in
    let nwindows = (bits + c - 1) / c in
    let mask = (1 lsl c) - 1 in
    let digits =
      Array.map (fun e -> Array.init nwindows (fun w -> (e lsr (w * c)) land mask)) exps
    in
    run ?jobs ~c ~nwindows ~npoints:n ~digits ~points:pts ()
  end

(* Growable (scalar, point) term accumulator for random-linear-combination
   batch verification: every verifier equation LHS = RHS contributes the
   terms of rho * (LHS - RHS); the whole batch is accepted iff the single
   evaluated sum is the group identity.

   Bases listed in [coalesce] are matched by physical equality on push and
   their coefficients are summed into one cell each, so ubiquitous fixed
   bases (the Pedersen g and blinding base q appear in nearly every
   equation) cost one MSM term instead of dozens. *)
module Acc = struct
  type t = {
    mutable scalars : Scalar.t array;
    mutable points : Point.t array;
    mutable n : int;
    mutable carry : Point.t;
    cbases : Point.t array;
    csums : Scalar.t array;
  }

  (* Term buffers start small and double on demand; [reset]/[flush] return
     them to this capacity so a long-lived accumulator (one per shard per
     session in the streaming verifier) doesn't ratchet up to the largest
     batch it ever saw. *)
  let initial_capacity = 64

  let create ?(coalesce = [||]) () =
    {
      scalars = Array.make initial_capacity Scalar.zero;
      points = Array.make initial_capacity Point.identity;
      n = 0;
      carry = Point.identity;
      cbases = coalesce;
      csums = Array.make (Array.length coalesce) Scalar.zero;
    }

  let push t s p =
    let nc = Array.length t.cbases in
    let rec find i = if i = nc then -1 else if t.cbases.(i) == p then i else find (i + 1) in
    let ci = find 0 in
    if ci >= 0 then t.csums.(ci) <- Scalar.add t.csums.(ci) s
    else begin
      let cap = Array.length t.scalars in
      if t.n = cap then begin
        let scalars = Array.make (2 * cap) Scalar.zero in
        let points = Array.make (2 * cap) Point.identity in
        Array.blit t.scalars 0 scalars 0 cap;
        Array.blit t.points 0 points 0 cap;
        t.scalars <- scalars;
        t.points <- points
      end;
      t.scalars.(t.n) <- s;
      t.points.(t.n) <- p;
      t.n <- t.n + 1
    end

  let size t =
    let extra = ref 0 in
    Array.iter (fun s -> if not (Scalar.is_zero s) then incr extra) t.csums;
    t.n + !extra

  let terms t =
    let extra = ref [] in
    Array.iteri
      (fun i s -> if not (Scalar.is_zero s) then extra := (s, t.cbases.(i)) :: !extra)
      t.csums;
    Array.append (Array.init t.n (fun i -> (t.scalars.(i), t.points.(i)))) (Array.of_list !extra)

  let capacity t = Array.length t.scalars

  let clear_terms t =
    t.n <- 0;
    Array.fill t.csums 0 (Array.length t.csums) Scalar.zero;
    if Array.length t.scalars > initial_capacity then begin
      t.scalars <- Array.make initial_capacity Scalar.zero;
      t.points <- Array.make initial_capacity Point.identity
    end

  let reset t =
    clear_terms t;
    t.carry <- Point.identity

  let flush ?jobs t =
    if size t > 0 then t.carry <- Point.add t.carry (msm ?jobs (terms t));
    clear_terms t;
    t.carry

  let carry t = t.carry

  let merge dst src =
    if not (Point.is_identity src.carry) then dst.carry <- Point.add dst.carry src.carry;
    Array.iter (fun (s, p) -> push dst s p) (terms src)

  let eval ?jobs t =
    let m = msm ?jobs (terms t) in
    if Point.is_identity t.carry then m else Point.add t.carry m

  let is_identity ?jobs t = Point.is_identity (eval ?jobs t)
end
