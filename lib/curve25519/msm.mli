(** Multi-scalar multiplication (Pippenger's bucket method).

    Computes Σᵢ eᵢ·Pᵢ in O(n·b / log n) point additions instead of the
    naive O(n·b). This is the "mult-exponentiation" the paper leans on for
    its O(d / log d) client cost: the server's h_t = Π w_l^{a_tl}
    precomputation, the client's VerCrt batch verification (Algorithm 3)
    and the server's e_t recomputation are all instances.

    Exponents are recoded into signed c-bit digits, so a window has
    2^(c−1) buckets and a negative digit subtracts its base at the cost of
    an addition. The window size c minimizes the modelled bucket work,
    ⌈(b+1)/c⌉·(n·madd + 2^c·add) for n points per chunk and b-bit
    exponents, so it depends on the chunk size and the exponent width
    only.

    Both entry points split the point set into per-domain chunks executed
    on the {!Parallel} pool ([?jobs] defaults to
    [Parallel.default_jobs ()]); partial chunk sums merge in fixed order,
    so the result is identical for every job count. *)

(** [msm ?jobs pairs] for full-size scalar exponents. Empty input gives
    the identity. *)
val msm : ?jobs:int -> (Scalar.t * Point.t) array -> Point.t

(** [msm_small ?jobs pairs] for native-int exponents of either sign (e.g.
    the discretized Gaussian coefficients a_tl, |a| < 2^30); faster than
    {!msm} because the exponent bit-length is short. Raises
    [Invalid_argument] if an exponent is [min_int], whose magnitude is
    not a native int. *)
val msm_small : ?jobs:int -> (int * Point.t) array -> Point.t

(** Points-per-chunk sequential cutoff: inputs that would leave a chunk
    with fewer points run sequentially regardless of [?jobs], because the
    per-chunk fixed costs (full doubling chain + bucket suffix sums per
    window) would dominate. Exposed for tests and the cost model. *)
val seq_cutoff : int

(** Term accumulator for random-linear-combination batch verification.

    Verifier equations [LHS = RHS] are folded by pushing the terms of
    [rho_j * (LHS - RHS)] for an independently random [rho_j] per
    equation; the whole accumulated batch is accepted iff {!eval} returns
    the identity. A dishonest term set survives with probability at most
    (#equations)/ℓ over the choice of the [rho_j] (ℓ the group order,
    ~2^252), because the accumulated sum is a nonzero ℓ-linear form in
    the [rho_j] evaluated at a random point. *)
module Acc : sig
  type t

  (** [create ?coalesce ()] — fresh empty accumulator. Bases in
      [coalesce] are recognized by physical equality on {!push} and
      accumulate into a single coefficient cell each (use for fixed bases
      like the Pedersen [g]/[q] that appear in every equation). *)
  val create : ?coalesce:Point.t array -> unit -> t

  (** [push t s p] — add the term [s·p]. *)
  val push : t -> Scalar.t -> Point.t -> unit

  (** Number of MSM terms currently held (coalesced bases with a nonzero
      running coefficient count as one each). *)
  val size : t -> int

  (** Materialize the current term list (coalesced bases last, only if
      their running coefficient is nonzero). The accumulator remains
      usable. *)
  val terms : t -> (Scalar.t * Point.t) array

  (** Evaluate the buffered terms with one Pippenger MSM. *)
  val eval : ?jobs:int -> t -> Point.t

  (** [is_identity ?jobs t] = [Point.is_identity (eval ?jobs t)]. *)
  val is_identity : ?jobs:int -> t -> bool
end
