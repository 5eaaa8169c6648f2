(* Pippenger bucket multi-scalar multiplication.

   - Each exponent is recoded once up front into signed c-bit digits
     ([signed_digits]).  A window then needs 2^(c-1) buckets instead of
     2^c - 1, which halves the bucket fold, and a negative digit costs the
     same as a positive one: its bucket insertion subtracts the Niels point
     ([Point.Mut.msub]) instead of adding it.

   - The window size c minimizes a cost model of the bucket work
     ([window_bits]) for the points of one chunk and the exponent width.

   - The point set is split into per-domain chunks, each chunk runs the
     full windowed bucket accumulation independently, and the partial
     sums are merged with log(chunks) point additions. Partials combine
     in fixed chunk order, so the result is the same group element for
     every job count. *)

(* Field multiplications of one bucket insertion (a mixed addition) and
   of one bucket-fold step (a full extended addition). *)
let madd_muls = 7
let add_muls = 9

(* Signed windows for exponents below 2^bits: one bit more than the
   unsigned count, so a carry out of the top digit always has room. *)
let windows ~bits c = (bits + c) / c

(* The c minimizing windows * (n madds + 2 fold additions per bucket),
   for n points per chunk.  The doubling chain costs about [bits]
   doublings for any c, so it drops out. *)
let window_bits ~bits n =
  let cost c = windows ~bits c * ((n * madd_muls) + (2 * (1 lsl (c - 1)) * add_muls)) in
  let best = ref 1 in
  for c = 2 to 20 do
    if cost c < cost !best then best := c
  done;
  !best

(* The digits of one MSM: point i's signed digit for window w at index
   i * nwindows + w.  They are plain ints live for the whole evaluation,
   so they sit outside the OCaml heap: the GC never scans or promotes
   them. *)
type digits = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Writes to [out] from index [off] the signed recoding of [raw], the
   unsigned little-endian c-bit digits of a non-negative exponent,
   negated if [neg].  A digit above 2^(c-1) borrows 2^c from the next
   window, so every digit lies in [-2^(c-1) + 1, 2^(c-1)]; an exponent
   below 2^(c * windows - 1) leaves no carry out of the top window. *)
let signed_digits ~c ~neg raw (out : digits) off =
  let half = 1 lsl (c - 1) and full = 1 lsl c in
  let carry = ref 0 in
  for w = 0 to Array.length raw - 1 do
    let d = raw.(w) + !carry in
    let d =
      if d > half then begin
        carry := 1;
        d - full
      end
      else begin
        carry := 0;
        d
      end
    in
    Bigarray.Array1.set out (off + w) (if neg then -d else d)
  done;
  assert (!carry = 0)

(* Bucket accumulation over the point range [lo, hi): [digits] holds the
   signed digits of every exponent; [nls.(i)] the base in mixed-affine
   Niels form, so every bucket insertion is a 7-mul madd (or msub)
   instead of a 9-mul extended addition.  The conversion happens once per
   MSM evaluation (one Montgomery inversion over all input points) before
   the chunks fan out — see [run].

   Nothing is added to an identity it could copy instead: a bucket is
   reset on its first insertion in a window and skipped by the fold while
   empty, and the suffix sums and the window accumulator start as copies.
   So a sparse window (few points, as in small MSMs) folds in a few
   additions, not 2^c, and the doubling chain starts at the first window
   that contributes.  All accumulators are in place and owned by this
   chunk; only the final sum is copied out. *)
let run_range ~c ~nwindows ~lo ~hi ~(digits : digits) ~nls =
  let nbuckets = 1 lsl (c - 1) in
  let sc = Point.Mut.scratch () in
  let buckets = Array.init (nbuckets + 1) (fun _ -> Point.Mut.identity ()) in
  let filled = Array.make (nbuckets + 1) false in
  let running = Point.Mut.identity () and total = Point.Mut.identity () in
  let acc = Point.Mut.identity () in
  (* p <- p + q, or p <- q while [set] says p is still empty *)
  let accumulate set p q =
    if !set then Point.Mut.add sc p q
    else begin
      Point.Mut.copy p q;
      set := true
    end
  in
  let acc_set = ref false in
  for w = nwindows - 1 downto 0 do
    (* only the last doubling of the chain computes T, which the window
       addition below reads *)
    if !acc_set then
      for k = 1 to c do
        Point.Mut.double sc acc ~with_t:(k = c)
      done;
    for i = lo to hi - 1 do
      let d = Bigarray.Array1.get digits ((i * nwindows) + w) in
      if d <> 0 then begin
        let b = abs d in
        if not filled.(b) then begin
          Point.Mut.set_identity buckets.(b);
          filled.(b) <- true
        end;
        if d > 0 then Point.Mut.madd sc buckets.(b) nls.(i) else Point.Mut.msub sc buckets.(b) nls.(i)
      end
    done;
    (* sum_b b * bucket_b via suffix sums *)
    let running_set = ref false and total_set = ref false in
    for b = nbuckets downto 1 do
      if filled.(b) then begin
        accumulate running_set running buckets.(b);
        filled.(b) <- false
      end;
      if !running_set then accumulate total_set total running
    done;
    if !total_set then accumulate acc_set acc total
  done;
  if !acc_set then Point.Mut.freeze acc else Point.identity

(* Sequential cutoff: each chunk pays fixed costs that are independent of
   its point count — a full doubling chain across every window plus a
   suffix-sum pass over all 2^(c-1) buckets per window. Below ~1k points
   per chunk those fixed costs dominate the per-point bucket additions,
   so fanning out across domains is a net loss (BENCH_RISEFL.json showed
   msm-full at n=256 5x slower at jobs=2 than jobs=1). Capping the chunk
   count so every chunk keeps at least this many points makes small MSMs
   run sequentially at any job count. *)
let seq_cutoff = 1024

(* The window size is chosen from the per-chunk point count, not the
   total: each chunk runs its own bucket accumulation, so oversizing c
   from the global n would blow up the per-chunk suffix-sum cost. *)
let chunk_window ?jobs ~bits n =
  let nchunks = Parallel.chunk_count ?jobs ~min_chunk:seq_cutoff n in
  window_bits ~bits ((n + nchunks - 1) / nchunks)

let c_evals = Telemetry.Counter.make "msm.evals"
let c_points = Telemetry.Counter.make "msm.points"
let c_window = Telemetry.Counter.make "msm.window_bits"
let c_chunks = Telemetry.Counter.make "msm.chunks"

(* [unsigned ~c ~nwindows i] is a fresh array of the unsigned c-bit
   digits of |exponent i|, and [neg i] its sign *)
let run ?jobs ~bits ~unsigned ~neg points =
  let npoints = Array.length points in
  let c = chunk_window ?jobs ~bits npoints in
  let nwindows = windows ~bits c in
  Telemetry.Counter.incr c_evals;
  Telemetry.Counter.add c_points npoints;
  Telemetry.Counter.add c_window c;
  let digits = Bigarray.(Array1.create int c_layout (npoints * nwindows)) in
  for i = 0 to npoints - 1 do
    signed_digits ~c ~neg:(neg i) (unsigned ~c ~nwindows i) digits (i * nwindows)
  done;
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

(* every scalar is below the group order, a 253-bit number *)
let scalar_bits = 253

let msm ?jobs pairs =
  if Array.length pairs = 0 then Point.identity
  else begin
    let unsigned ~c ~nwindows i = Bigint.to_digits ~bits:c ~count:nwindows (Scalar.to_bigint (fst pairs.(i))) in
    run ?jobs ~bits:scalar_bits ~unsigned ~neg:(fun _ -> false) (Array.map snd pairs)
  end

let msm_small ?jobs pairs =
  (* abs min_int is negative: its digits would all read as zero *)
  if Array.exists (fun (e, _) -> e = min_int) pairs then
    invalid_arg "Msm.msm_small: exponent out of range";
  if Array.length pairs = 0 then Point.identity
  else begin
    let maxe = Array.fold_left (fun m (e, _) -> Stdlib.max m (abs e)) 0 pairs in
    let rec lg acc v = if v = 0 then acc else lg (acc + 1) (v lsr 1) in
    (* bits <= 62, so every window shift below is under 63 *)
    let bits = Stdlib.max 1 (lg 0 maxe) in
    let unsigned ~c ~nwindows i =
      let e = abs (fst pairs.(i)) in
      Array.init nwindows (fun w -> (e lsr (w * c)) land ((1 lsl c) - 1))
    in
    run ?jobs ~bits ~unsigned ~neg:(fun i -> fst pairs.(i) < 0) (Array.map snd pairs)
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
    cbases : Point.t array;
    csums : Scalar.t array;
  }

  let create ?(coalesce = [||]) () =
    {
      scalars = Array.make 64 Scalar.zero;
      points = Array.make 64 Point.identity;
      n = 0;
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

  let eval ?jobs t = msm ?jobs (terms t)
  let is_identity ?jobs t = Point.is_identity (eval ?jobs t)
end
