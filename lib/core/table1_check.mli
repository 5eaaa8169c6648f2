(** Executable cross-check of the paper's Table 1 (see [Cost_model]).

    [run] drives one honest RiseFL round stage by stage with telemetry
    enabled, converts the measured point-operation deltas of each stage
    into group-exponentiation equivalents (using a runtime calibration of
    ops-per-full-scalar-mul), and compares them against the
    [Cost_model.risefl] predictions.  Each gated stage carries a tolerance
    band on the measured/predicted ratio; the bands are calibrated for the
    default configuration and documented in EXPERIMENTS.md.  A band is
    deliberately wide enough to absorb the model's dropped constants and
    sub-asymptotic terms (range proofs cost O(k·b_ip) regardless of d, the
    uniform a_0 row of the projection matrix costs d/log d on top of the
    k·d·logM/(log d·log p) small rows) but tight enough that an
    order-of-magnitude regression — e.g. replacing an MSM with per-term
    exponentiations — fails the check.

    Because the range-proof floor is d-independent and dominates absolute
    proof-generation cost at CI scale, the [proofgen-marginal] stage also
    measures proof generation at [2d] and gates the measured-vs-predicted
    {e delta}, which isolates the paper's O(d/log d) scaling claim from
    the constant term. *)

type stage_check = {
  stage : string;
  measured : float;  (** group-exp equivalents (elements for the comm row) *)
  predicted : float;  (** [Cost_model.risefl] prediction *)
  ratio : float;  (** measured / predicted *)
  lo : float;
  hi : float;
  gated : bool;  (** whether the stage participates in [all_ok] *)
  ok : bool;  (** [true] for ungated stages *)
}

type report = {
  cfg : Cost_model.config;
  ops_per_ge : float;  (** calibrated adds+doubles per full-scalar [Point.mul] *)
  stages : stage_check list;
  all_ok : bool;
}

val run : ?n:int -> ?m:int -> ?d:int -> ?k:int -> ?seed:string -> unit -> report
(** Defaults: [n = 3], [m = 1], [d = 256], [k = 4] — small enough for CI,
    large enough that d dominates k.  Temporarily enables telemetry and
    pins {!Parallel.default_jobs} to 1 (restoring both), so the measured
    counts do not depend on [RISEFL_JOBS]; raises [Failure] if the honest
    round itself misbehaves (a proof rejected, aggregation failing). *)

val to_table : report -> string
(** Aligned console rendering of the measured-vs-predicted table. *)
