(* The round benchmark. One run: set-up sampled several times, then
   closed-loop rounds of one workload for --seconds, each round checked
   by the oracle. With --trace 0 it reports the end-to-end metrics; with
   --trace 1 an untraced and a traced half plus direct probes of single
   layers give the per-layer metrics. The last line of stdout is the
   result object; a typed, provenance-stamped report precedes it.

   usage: rbench.exe --workload NAME --seed S --seconds T --trace 0|1
                     [--commit SHA] [--dirty 0|1] *)

module Driver = Risefl_core.Driver
module Setup = Risefl_core.Setup
module Params = Risefl_core.Params
module Serial = Risefl_core.Serial
module Round_log = Risefl_core.Round_log
module Sampling = Risefl_core.Sampling
module Point = Curve25519.Point
module Scalar = Curve25519.Scalar
module Clock = Telemetry.Clock
module Json = Telemetry.Json

let pf = Printf.printf

(* --- command line --- *)

let workload = ref ""
let seed = ref ""
let seconds = ref 10.0
let trace = ref 0
let commit = ref "unknown"
let dirty = ref (-1)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_string seed, "S workload seed");
      ("--seconds", Arg.Set_float seconds, "T seconds of rounds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--commit", Arg.Set_string commit, "SHA git commit of the measured tree");
      ("--dirty", Arg.Set_int dirty, "0|1 whether the tree had uncommitted changes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rbench.exe --workload NAME --seed S --seconds T --trace 0|1"

let cfg =
  match Rb.find !workload with
  | Some c -> c
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun c -> c.Rb.name) Rb.workloads));
      exit 2

let () =
  if !seed = "" then (prerr_endline "--seed is required"; exit 2);
  if !seconds <= 0.0 then (prerr_endline "--seconds must be positive"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2)

(* the pool is pinned here, never taken from RISEFL_JOBS *)
let nproc = Domain.recommended_domain_count ()
let jobs = min 2 nproc
let () = Parallel.set_default_jobs jobs

let work_dir = ".perfbench_work"
let () = if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755
let wal_path = Filename.concat work_dir (cfg.Rb.name ^ ".wal")

(* --- statistics --- *)

(* quantiles by linear interpolation between order statistics; a metric
   without samples (its layer did not run) reads 0 *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

type row = { name : string; unit_ : string; samples : float list }

let row name unit_ samples = { name; unit_; samples }
let value r = median r.samples

let row_json r =
  let m = value r in
  let q1 = quantile r.samples 0.25 and q3 = quantile r.samples 0.75 in
  Json.Obj
    [
      ("name", Json.Str r.name);
      ("unit", Json.Str r.unit_);
      ("samples", Json.Num (float_of_int (List.length r.samples)));
      ("median", Json.Num m);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("spread", Json.Num (if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m));
    ]

(* --- set-up: Setup.create plus Driver.create_session, sampled --- *)

let params = Rb.params cfg
let behaviours = Rb.behaviours cfg ~seed:!seed
let session_seed = Rb.session_seed cfg ~seed:!seed

let setup_samples, setup, session =
  let samples = ref [] and last = ref None in
  for _ = 1 to 7 do
    (* every sample starts from a compacted heap, as a fresh process would *)
    Gc.compact ();
    let (setup, session), dt =
      Clock.time (fun () ->
          let setup = Setup.create ~label:(Rb.setup_label cfg) params in
          (setup, Driver.create_session setup ~seed:session_seed))
    in
    samples := dt :: !samples;
    last := Some (setup, session)
  done;
  let setup, session = Option.get !last in
  (List.rev !samples, setup, session)

(* --- the oracle's tally --- *)

let attempted = ref 0
let failed = ref 0

let judge ~round verdict =
  incr attempted;
  match verdict with
  | Ok () -> ()
  | Error e ->
      incr failed;
      pf "FAIL round %d: %s\n%!" round e

(* --- one unit of closed-loop work --- *)

(* what a unit leaves behind for the reports *)
let up_bytes = ref []
let down_bytes = ref []
let last_aggregate = ref [||]

let note_stats = function
  | Driver.Completed st ->
      up_bytes := float_of_int st.Driver.client_up_bytes :: !up_bytes;
      down_bytes := float_of_int st.Driver.client_down_bytes :: !down_bytes;
      Option.iter (fun a -> last_aggregate := a) st.Driver.aggregate
  | _ -> ()

(* honest workloads: one session, rounds numbered on across the run, one
   Loopback (one socketpair) for every round of the wide workload *)
let endpoint =
  match cfg.Rb.backend with
  | Rb.Loopback ->
      Some
        (Risefl_transport.Loopback.endpoint
           (Risefl_transport.Loopback.create ~seed:(session_seed ^ "/net") ()))
  | _ -> None

let next_round = ref 0

let honest_unit () =
  incr next_round;
  let round = !next_round in
  let updates = Rb.updates cfg ~seed:!seed ~behaviours ~round in
  let o, dt =
    Clock.time (fun () ->
        Rb.honest_round cfg ?endpoint session ~updates ~behaviours ~round)
  in
  judge ~round (Rb.check ~expect_cstar:[] ~absent:(Rb.dropouts behaviours) ~updates o);
  note_stats o;
  [ dt ]

(* the replay: recorded once here, untimed, then each unit is a fresh
   session replaying every recorded round; the unit's sample is its
   server seconds per round *)
let recording =
  match cfg.Rb.backend with
  | Rb.Replay ->
      let r, dt = Clock.time (fun () -> Rb.record cfg setup ~seed:!seed ~wal_path) in
      pf "recorded %d rounds of client frames in %.2f s (untimed)\n%!" cfg.Rb.rounds dt;
      (* the reference run answers to the oracle too, and convicts no
         honest client *)
      Array.iteri
        (fun i o ->
          let round = i + 1 in
          let cstar = Rb.ref_cstar r ~round in
          pf "reference round %d: C* %s\n" round (Rb.ids_to_string cstar);
          judge ~round
            (match List.filter (fun id -> r.Rb.behaviours.(id - 1) = Driver.Honest) cstar with
            | [] -> Rb.check_replayed r ~round o
            | honest -> Error ("honest clients convicted: " ^ Rb.ids_to_string honest)))
        r.Rb.ref_outcomes;
      Some r
  | _ -> None

let replay_unit rec_ () =
  let times = ref [] in
  Rb.replay cfg setup ~seed:!seed ~rec_ ~wal_path ~on_round:(fun ~round o dt ->
      times := dt :: !times;
      judge ~round (Rb.check_replayed rec_ ~round o);
      note_stats o);
  let total = List.fold_left ( +. ) 0.0 !times in
  [ total /. float_of_int cfg.Rb.rounds ]

let unit_ = match recording with Some r -> replay_unit r | None -> honest_unit

(* --- memory: peak major heap, sampled at every major-cycle end --- *)

let heap_peak = ref 0
let tracking = ref false
let sample_heap () = heap_peak := max !heap_peak (Gc.quick_stat ()).Gc.heap_words
let _alarm = Gc.create_alarm (fun () -> if !tracking then sample_heap ())

(* Closed loop: units back to back until [budget] seconds have passed
   (at least [min_units]). An exception is a failed round and ends the
   loop. Returns the per-unit samples. *)
let run_loop ~budget ~min_units =
  let t0 = Clock.now_s () in
  let samples = ref [] and stop = ref false in
  while
    (not !stop) && (Clock.now_s () -. t0 < budget || List.length !samples < min_units)
  do
    match unit_ () with
    | s ->
        samples := !samples @ s;
        if !tracking then sample_heap ()
    | exception e ->
        incr attempted;
        incr failed;
        pf "FAIL: exception %s\n%!" (Printexc.to_string e);
        stop := true
  done;
  !samples

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- traced-run helpers --- *)

let stages = [ "commit"; "flag"; "check"; "proof"; "agg" ]

(* the stages whose frames cross the wire (check is a broadcast) *)
let wire_stages = [ "commit"; "flag"; "proof"; "agg" ]

(* per-round view of [Driver]'s spans: (span name -> seconds), keyed by
   the name relative to the round span ("proof.wire",
   "proof.wire/proof.client", ...) plus "round" itself *)
let rounds_of_spans spans =
  let cur = Hashtbl.create 16 and out = ref [] in
  let add k dt = Hashtbl.replace cur k (dt +. Option.value ~default:0.0 (Hashtbl.find_opt cur k)) in
  List.iter
    (fun sp ->
      match sp.Telemetry.path with
      | [ "round" ] ->
          Hashtbl.replace cur "round" sp.Telemetry.dur_s;
          out := Hashtbl.copy cur :: !out;
          Hashtbl.reset cur
      | [ "round"; s ] -> add s sp.Telemetry.dur_s
      | [ "round"; w; c ]
        when String.ends_with ~suffix:".wire" w && String.ends_with ~suffix:".client" c ->
          add (w ^ "/" ^ c) sp.Telemetry.dur_s
      | _ -> ())
    spans;
  List.rev !out

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

(* time [f] up to [reps] times, starting no new call after the first
   second (so at least once) *)
let probe ?(reps = 3) f =
  let t0 = Clock.now_s () in
  let rec go acc i =
    if i >= reps || (i > 0 && Clock.now_s () -. t0 > 1.0) then acc
    else go (snd (Clock.time f) :: acc) (i + 1)
  in
  go [] 0

let probe_ok = ref true

let expect what b =
  if not b then begin
    probe_ok := false;
    pf "FAIL probe: %s\n%!" what
  end

(* --- the run --- *)

let untraced () =
  Gc.compact ();
  heap_peak := 0;
  sample_heap ();
  tracking := true;
  let samples = run_loop ~budget:!seconds ~min_units:1 in
  tracking := false;
  let words = float_of_int !heap_peak in
  let pass =
    if !attempted = 0 then 0.0 else 1.0 -. (float_of_int !failed /. float_of_int !attempted)
  in
  [
    row "round_s" "s" samples;
    row "setup_s" "s" setup_samples;
    row "client_up_bytes" "B" !up_bytes;
    row "client_down_bytes" "B" !down_bytes;
    row "peak_heap_mb" "MB" [ words *. float_of_int (Sys.word_size / 8) /. 1048576.0 ];
    row "pass_share" "ratio" [ pass ];
  ]

let traced () =
  let half = !seconds /. 2.0 in
  let c0 = cpu_s () and w0 = Clock.now_s () in
  let plain = run_loop ~budget:half ~min_units:1 in
  let cpu_per_wall = (cpu_s () -. c0) /. (Clock.now_s () -. w0) in
  Telemetry.reset ();
  Telemetry.enable ();
  let traced =
    Fun.protect ~finally:Telemetry.disable (fun () -> run_loop ~budget:half ~min_units:1)
  in
  let snap = Telemetry.snapshot () in
  let rounds = rounds_of_spans snap.Telemetry.spans in
  let n_rounds = float_of_int (max 1 (List.length rounds)) in
  let per_round f = List.map f rounds in
  let active = float_of_int (cfg.Rb.n - cfg.Rb.dropouts) in
  let counter name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Telemetry.counters)) /. n_rounds
  in
  let gauge name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Telemetry.gauges))
  in
  let stage_keys =
    [ "commit.wire"; "commit.server"; "flag.wire"; "flag.server"; "check.server"; "check.tables";
      "proof.wire"; "proof.server"; "agg.wire"; "agg.server" ]
  in
  let client s r = get r (s ^ ".wire/" ^ s ^ ".client") in
  let server s r =
    if s = "check" then get r "check.server" +. get r "check.tables" else get r (s ^ ".server")
  in
  let exchange s r = get r (s ^ ".wire") -. client s r in
  let stage_sum r = List.fold_left (fun acc k -> acc +. get r k) 0.0 stage_keys in
  (* --- the breakdown: stage spans against round_s --- *)
  let med f = median (per_round f) in
  pf "\ntraced breakdown, %s (median over %d traced rounds; seconds per round)\n" cfg.Rb.name
    (List.length rounds);
  pf "  %-8s %10s %10s %10s %10s\n" "stage" "server" "client" "exchange" "total";
  List.iter
    (fun s ->
      pf "  %-8s %10.4f %10.4f %10.4f %10.4f\n" s (med (server s)) (med (client s))
        (med (exchange s))
        (med (fun r -> server s r +. get r (s ^ ".wire"))))
    stages;
  let round_span = med (fun r -> get r "round") in
  let stage_total = med stage_sum in
  let plain_s = median plain and traced_s = median traced in
  pf "  stages summed                      %10.4f\n" stage_total;
  pf "  round span                         %10.4f\n" round_span;
  pf "  remainder (round span - stages)    %10.4f  (%.1f%%)\n" (round_span -. stage_total)
    (100.0 *. (round_span -. stage_total) /. round_span);
  pf "  round_s traced, timed outside      %10.4f\n" traced_s;
  pf "  round_s untraced                   %10.4f\n" plain_s;
  pf "  tracing overhead                   %10.4f  (%+.1f%%)\n" (traced_s -. plain_s)
    (100.0 *. (traced_s -. plain_s) /. plain_s);
  if cfg.Rb.backend = Rb.Replay then
    pf "  core.client.proof_s: absent (%d client proof spans in the timed rounds)\n"
      (List.length (List.filter (fun r -> Hashtbl.mem r "proof.wire/proof.client") rounds));
  let span_rows =
    List.map
      (fun s ->
        row (Printf.sprintf "core.client.%s_s" s) "s" (per_round (fun r -> client s r /. active)))
      wire_stages
    @ List.map
        (fun s -> row (Printf.sprintf "core.server.%s_s" s) "s" (per_round (server s)))
        stages
    @ List.map
        (fun s -> row (Printf.sprintf "core.driver.%s.exchange_s" s) "s" (per_round (exchange s)))
        wire_stages
    @ [ row "core.driver.remainder_s" "s" (per_round (fun r -> get r "round" -. stage_sum r)) ]
  in
  let count_rows =
    List.map
      (fun (name, counter_name, unit_) -> row name unit_ [ counter counter_name ])
      [
        ("core.serial.commit_bytes", "wire.commit.bytes", "B");
        ("core.serial.proof_bytes", "wire.proof.bytes", "B");
        ("core.serial.agg_bytes", "wire.agg.bytes", "B");
        ("core.serial.broadcast_bytes", "wire.broadcast.bytes", "B");
        ("curve25519.point.add", "point.add", "count");
        ("curve25519.point.double", "point.double", "count");
        ("curve25519.point.madd", "point.madd", "count");
        ("curve25519.point.scalarmul", "point.scalarmul", "count");
        ("curve25519.msm.evals", "msm.evals", "count");
        ("curve25519.msm.points", "msm.points", "count");
        ("curve25519.fe.invert_batch_elems", "fe.invert_batch.elems", "count");
        ("curve25519.dlog.probes", "dlog.probes", "count");
        ("store.wal.appends", "wal.appends", "count");
        ("store.wal.bytes", "wal.bytes", "B");
        ("store.wal.fsyncs", "wal.fsyncs", "count");
        ("hashfn.sha256.blocks", "sha256.blocks", "count");
        ("prng.drbg.bytes", "drbg.bytes", "B");
        ("transport.frames_in", "transport.frames.in", "count");
        ("transport.bytes_in", "transport.bytes.in", "B");
      ]
    @ [ row "mem.live_words_peak" "words" [ gauge "mem.live_words.peak" ] ]
  in
  (* --- direct probes of single layers, at the workload's sizes --- *)
  let drbg = Prng.Drbg.create_string (session_seed ^ "/probes") in
  let g = setup.Setup.g and q = setup.Setup.q in
  let prove ~bits ~count () =
    let values =
      Array.init count (fun _ ->
          Bigint.of_int (Prng.Drbg.uniform_int drbg (1 lsl min 30 (bits - 1))))
    in
    let blinds = Array.init count (fun _ -> Scalar.random drbg) in
    ignore
      (Zkp.Range_proof.prove ~g_table:setup.Setup.g_table ~h_table:setup.Setup.q_table drbg
         (Zkp.Transcript.create "perfbench/probe") ~gens:setup.Setup.bp_gens ~g ~h:q ~bits ~values
         ~blinds)
  in
  let p = params in
  let prove_sigma = probe (prove ~bits:p.Params.b_ip_bits ~count:p.Params.k) in
  let prove_mu = probe (prove ~bits:p.Params.b_max_bits ~count:1) in
  let update = (Rb.updates cfg ~seed:!seed ~behaviours ~round:1).(0) in
  let commit_vec =
    probe (fun () ->
        ignore
          (Commitments.Pedersen.commit_vec ~g_table:setup.Setup.g_table ~bases:setup.Setup.w
             ~values:update ~blind:(Scalar.random drbg)))
  in
  let matrix =
    Sampling.sample_matrix ~seed:(Bytes.of_string session_seed) ~d:p.Params.d ~k:p.Params.k
      ~m_factor:p.Params.m_factor
  in
  let hs = Sampling.compute_h setup matrix in
  let compute_h = probe (fun () -> ignore (Sampling.compute_h setup matrix)) in
  let ver_crt =
    probe (fun () ->
        expect "VerCrt accepts the server's h"
          (Sampling.ver_crt drbg ~bases:setup.Setup.w ~targets:hs ~matrix))
  in
  (* BSGS on the last round's aggregate, with a freshly built solver *)
  let agg = !last_aggregate in
  let dlog_solve =
    if Array.length agg = 0 then []
    else begin
      let solver = Curve25519.Dlog.create ~base:g ~max_abs:(Params.agg_max_abs p) () in
      let targets = Array.map (Point.Table.mul_small setup.Setup.g_table) agg in
      probe (fun () ->
          let got = Curve25519.Dlog.solve_many solver targets in
          expect "BSGS recovers the aggregate" (got = Array.map Option.some agg))
    end
  in
  (* per-frame decode, and write-ahead append + fsync, on the replay's
     recorded round-1 frames *)
  let decode_commit, decode_proof, wal_append =
    match recording with
    | None -> ([], [], [])
    | Some r ->
        let commits = Rb.recorded r ~round:1 ~stage:Netsim.Commit
        and proofs = Rb.recorded r ~round:1 ~stage:Netsim.Proof in
        let decode_times decode frames =
          List.concat_map
            (fun (_, _, f) ->
              probe ~reps:1 (fun () -> expect "a recorded frame decodes" (Result.is_ok (decode f))))
            frames
        in
        let path = Filename.concat work_dir (cfg.Rb.name ^ ".probe.wal") in
        if Sys.file_exists path then Sys.remove path;
        let w = Round_log.create path in
        let appends =
          List.map
            (fun (sender, seq, frame) ->
              snd
                (Clock.time (fun () ->
                     Round_log.append w
                       (Round_log.Frame { round = 1; stage = Netsim.Proof; sender; seq; frame }))))
            proofs
        in
        Round_log.close w;
        Sys.remove path;
        ( decode_times Serial.decode_commit commits,
          decode_times Serial.decode_proof proofs,
          appends )
  in
  span_rows @ count_rows
  @ [
      row "zkp.range_proof.prove_sigma_s" "s" prove_sigma;
      row "zkp.range_proof.prove_mu_s" "s" prove_mu;
      row "commitments.pedersen.commit_vec_s" "s" commit_vec;
      row "core.sampling.compute_h_s" "s" compute_h;
      row "core.sampling.ver_crt_s" "s" ver_crt;
      row "core.serial.decode_commit_s" "s" decode_commit;
      row "core.serial.decode_proof_s" "s" decode_proof;
      row "curve25519.dlog.solve_many_s" "s" dlog_solve;
      row "store.wal.append_sync_s" "s" wal_append;
      row "proc.cpu_per_wall" "ratio" [ cpu_per_wall ];
      row "trace.overhead_s" "s" [ traced_s -. plain_s ];
    ]

let rows = if !trace = 1 then traced () else untraced ()

let () =
  (try Sys.rmdir work_dir with Sys_error _ -> ());
  let show name xs =
    pf "%s samples: %s\n" name (String.concat " " (List.map (Printf.sprintf "%.4f") xs))
  in
  show "setup_s" setup_samples;
  List.iter (fun r -> if r.name = "round_s" then show "round_s" r.samples) rows;
  let fail_share =
    if !attempted = 0 then 1.0 else float_of_int !failed /. float_of_int !attempted
  in
  pf "\n%s: %d rounds attempted, %d failed, fail_share %.4f (jobs %d of nproc %d)\n" cfg.Rb.name
    !attempted !failed fail_share jobs nproc;
  pf "%-36s %-6s %7s %14s %14s %14s\n" "metric" "unit" "samples" "median" "q1" "q3";
  List.iter
    (fun r ->
      pf "%-36s %-6s %7d %14.6g %14.6g %14.6g\n" r.name r.unit_ (List.length r.samples) (value r)
        (quantile r.samples 0.25) (quantile r.samples 0.75))
    rows;
  let report =
    Json.Obj
      [
        ( "header",
          Json.Obj
            [
              ("workload", Json.Str cfg.Rb.name);
              ("seed", Json.Str !seed);
              ("seconds", Json.Num !seconds);
              ("trace", Json.Bool (!trace = 1));
              ("git_commit", Json.Str !commit);
              ("git_dirty", if !dirty < 0 then Json.Null else Json.Bool (!dirty = 1));
              ("jobs", Json.Num (float_of_int jobs));
              ("nproc", Json.Num (float_of_int nproc));
              ("ocaml_version", Json.Str Sys.ocaml_version);
              ("attempted", Json.Num (float_of_int !attempted));
              ("failed", Json.Num (float_of_int !failed));
              ("fail_share", Json.Num fail_share);
            ] );
        ("rows", Json.Arr (List.map row_json rows));
      ]
  in
  pf "report: %s\n" (Json.to_string report);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (!failed = 0 && !probe_ok && !attempted > 0));
        ("attempted", Json.Num (float_of_int (max 1 !attempted)));
        ("failed", Json.Num (float_of_int !failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun r ->
                 (r.name, Json.Obj [ ("value", Json.Num (value r)); ("unit", Json.Str r.unit_) ]))
               rows) );
      ]
  in
  pf "%s\n%!" (Json.to_string result)
