(* Workloads, seeded inputs, the correctness oracle and the client-frame
   recorder/replayer of the round benchmark. Shared by the benchmark
   binary ([rbench.ml]) and its oracle test ([test_oracle.ml]); every
   call goes through the public interfaces of the libraries under lib/. *)

module Driver = Risefl_core.Driver
module Setup = Risefl_core.Setup
module Params = Risefl_core.Params
module Server = Risefl_core.Server
module Round_log = Risefl_core.Round_log
module Topology = Risefl_topology.Topology

(* how the round's frames move *)
type backend =
  | Serialize  (** in-process; every frame round-trips through the wire codecs *)
  | Loopback  (** every frame crosses one kernel socketpair ({!Risefl_transport.Loopback}) *)
  | Replay  (** server half only: recorded client frames pushed through [Driver.remote] *)

type cfg = {
  name : string;
  n : int;
  m : int;
  d : int;
  k : int;
  topology : Topology.mode;
  stream : Server.stream_cfg option;
  backend : backend;
  rounds : int;  (** rounds per replay repetition (C* carries across them as bans) *)
  dropouts : int;  (** [Drop_out] clients *)
  oversized : int;  (** [Oversized 4.0] clients *)
}

let workloads =
  [
    {
      name = "prove-k32";
      n = 4;
      m = 1;
      d = 64;
      k = 32;
      topology = Topology.Full;
      stream = None;
      backend = Serialize;
      rounds = 1;
      dropouts = 0;
      oversized = 0;
    };
    {
      name = "wide-d4096";
      n = 4;
      m = 1;
      d = 4096;
      k = 4;
      topology = Topology.Full;
      stream = None;
      backend = Loopback;
      rounds = 1;
      dropouts = 0;
      oversized = 0;
    };
    {
      name = "serve-replay-n16";
      n = 16;
      m = 4;
      d = 1024;
      k = 4;
      topology = Topology.Kregular 4;
      stream = Some (Server.stream_cfg ~shards:2 ~batch:4 ());
      backend = Replay;
      rounds = 2;
      dropouts = 1;
      oversized = 1;
    };
  ]

let find name = List.find_opt (fun c -> c.name = name) workloads

(* --- seeded inputs --- *)

(* coordinates are uniform in [-amp, amp], so amp·sqrt(d) bounds every
   honest update's L2 norm *)
let amp = 30
let bound cfg = float_of_int amp *. sqrt (float_of_int cfg.d)

let params cfg =
  Params.make ~n_clients:cfg.n ~max_malicious:cfg.m ~d:cfg.d ~k:cfg.k ~m_factor:128.0
    ~bound_b:(bound cfg) ()

let setup_label cfg = "perfbench/" ^ cfg.name
let session_seed cfg ~seed = Printf.sprintf "perfbench/%s/%s" cfg.name seed

(* Adversarial roles land on seeded distinct ids in 2..n. Client 1 stays
   honest: [Driver]'s per-client byte accounting measures it. Under a
   k-regular topology the roles also avoid client 1's neighborhoods, so
   its byte counts do not depend on the seed. *)
let behaviours cfg ~seed =
  let b = Driver.honest_all cfg.n in
  let drbg = Prng.Drbg.create_string (session_seed cfg ~seed ^ "/roles") in
  let cohort = Array.init cfg.n (fun i -> i + 1) in
  let near_1 =
    List.concat_map
      (fun round ->
        match Topology.plan ~mode:cfg.topology ~seed:(session_seed cfg ~seed) ~round ~cohort with
        | Some tp -> Array.to_list (Topology.neighbors tp 1)
        | None -> [])
      (List.init cfg.rounds (fun r -> r + 1))
  in
  let rec pick () =
    let i = 2 + Prng.Drbg.uniform_int drbg (cfg.n - 1) in
    if b.(i - 1) = Driver.Honest && not (List.mem i near_1) then i else pick ()
  in
  for _ = 1 to cfg.dropouts do
    b.(pick () - 1) <- Driver.Drop_out
  done;
  for _ = 1 to cfg.oversized do
    b.(pick () - 1) <- Driver.Oversized 4.0
  done;
  b

let dropouts behaviours =
  List.filter_map
    (fun i -> if behaviours.(i) = Driver.Drop_out then Some (i + 1) else None)
    (List.init (Array.length behaviours) Fun.id)

(* one update per client, a pure function of (workload, seed, round); an
   [Oversized c] client's vector is rescaled to c times the bound *)
let updates cfg ~seed ~behaviours ~round =
  let drbg =
    Prng.Drbg.create_string (Printf.sprintf "%s/updates/r%d" (session_seed cfg ~seed) round)
  in
  Array.map
    (fun b ->
      let u = Array.init cfg.d (fun _ -> Prng.Drbg.uniform_int drbg ((2 * amp) + 1) - amp) in
      match b with
      | Driver.Oversized c ->
          let f = c *. bound cfg /. Encoding.Fixed_point.l2_norm_encoded u in
          Array.map (fun x -> int_of_float (Float.round (f *. float_of_int x))) u
      | _ -> u)
    behaviours

(* --- the oracle --- *)

let ids_to_string ids = "[" ^ String.concat ";" (List.map string_of_int ids) ^ "]"

(* A round passes when it completed, its C* is exactly [expect_cstar],
   and its aggregate equals, integer for integer, the sum of the updates
   of every client outside C* that reached aggregation ([absent] lists
   the clients that did not: dropouts and clients banned earlier). *)
let check ~expect_cstar ~absent ~updates outcome =
  match outcome with
  | Driver.Completed st -> (
      let cstar = List.sort_uniq compare st.Driver.flagged in
      let want_cstar = List.sort_uniq compare expect_cstar in
      if cstar <> want_cstar then
        Error
          (Printf.sprintf "C* %s, expected %s" (ids_to_string cstar) (ids_to_string want_cstar))
      else
        match st.Driver.aggregate with
        | None -> Error "aggregation failed"
        | Some agg ->
            let skip i = List.mem (i + 1) cstar || List.mem (i + 1) absent in
            let d = Array.length agg in
            let want = Array.make d 0 in
            Array.iteri
              (fun i u ->
                if not (skip i) then
                  if Array.length u <> d then invalid_arg "Rb.check: update length"
                  else Array.iteri (fun l x -> want.(l) <- want.(l) + x) u)
              updates;
            let bad = ref None in
            Array.iteri (fun l x -> if !bad = None && x <> want.(l) then bad := Some l) agg;
            match !bad with
            | None -> Ok ()
            | Some l ->
                Error
                  (Printf.sprintf "aggregate coordinate %d is %d, expected %d" l agg.(l)
                     want.(l)))
  | o -> Error ("round aborted: " ^ Driver.outcome_to_string o)

(* C* carries into later rounds as bans, exactly as [serve] does *)
let ban_convicted session = function
  | Driver.Completed st when st.Driver.aggregate <> None ->
      List.iter (Server.ban (Driver.session_server session)) st.Driver.flagged
  | _ -> ()

(* --- honest rounds --- *)

let honest_round cfg ?endpoint session ~updates ~behaviours ~round =
  match cfg.backend with
  | Serialize ->
      Driver.run_round_outcome ~serialize:true ?stream:cfg.stream ~topology:cfg.topology session
        ~updates ~behaviours ~round
  | Loopback ->
      Driver.run_round_outcome ?endpoint ?stream:cfg.stream ~topology:cfg.topology session
        ~updates ~behaviours ~round
  | Replay -> invalid_arg "Rb.honest_round: replay workload"

(* --- record once, replay many --- *)

type recording = {
  frames : (int * Netsim.stage, (int * int * Bytes.t) list) Hashtbl.t;
      (** (round, stage) → accepted (sender, seq, frame), in arrival order *)
  ref_outcomes : Driver.round_outcome array;  (** the reference run, per round *)
  ref_updates : int array array array;  (** per round *)
  behaviours : Driver.behaviour array;
}

(* The reference run: the same seeded session run in-process with every
   client computing, its accepted frames captured by a write-ahead log. *)
let record cfg setup ~seed ~wal_path =
  if Sys.file_exists wal_path then Sys.remove wal_path;
  let behaviours = behaviours cfg ~seed in
  let session = Driver.create_session setup ~seed:(session_seed cfg ~seed) in
  let wal = Round_log.create ~fsync:false wal_path in
  let ref_updates = Array.init cfg.rounds (fun r -> updates cfg ~seed ~behaviours ~round:(r + 1)) in
  let ref_outcomes =
    Array.init cfg.rounds (fun r ->
        let o =
          Driver.run_round_outcome ~wal ?stream:cfg.stream ~topology:cfg.topology session
            ~updates:ref_updates.(r) ~behaviours ~round:(r + 1)
        in
        ban_convicted session o;
        o)
  in
  Round_log.close wal;
  let records, _ = Round_log.replay wal_path in
  Sys.remove wal_path;
  let frames = Hashtbl.create 16 in
  List.iter
    (function
      | Round_log.Frame { round; stage; sender; seq; frame } ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt frames (round, stage)) in
          Hashtbl.replace frames (round, stage) ((sender, seq, frame) :: prev)
      | _ -> ())
    records;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) frames;
  { frames; ref_outcomes; ref_updates; behaviours }

let recorded rec_ ~round ~stage =
  Option.value ~default:[] (Hashtbl.find_opt rec_.frames (round, stage))

(* The transport side of [serve], minus the sockets: every stage's
   recorded frames are pushed through [Driver]'s write-ahead intake;
   broadcasts go nowhere. No reveal or neighborhood-recovery exchange is
   expected on these workloads — if one is asked for, it is refused and
   the oracle sees the consequence. *)
let remote_of rec_ : Driver.remote =
  {
    Driver.r_collect =
      (fun ~round ~stage ~already:_ ~push -> List.iter push (recorded rec_ ~round ~stage));
    r_commits = (fun ~round:_ _ -> ());
    r_cleared = (fun ~round:_ _ -> ());
    r_check = (fun ~round:_ _ -> ());
    r_honest = (fun ~round:_ ~honest:_ ~malicious:_ -> ());
    r_result = (fun ~round:_ _ -> ());
    r_reveal = (fun ~dealer:_ ~requests:_ -> None);
    r_recover = (fun ~round:_ ~dropout:_ ~responders:_ -> []);
  }

(* The expected C* of a replayed round: the reference run's. *)
let ref_cstar rec_ ~round =
  match rec_.ref_outcomes.(round - 1) with
  | Driver.Completed st -> st.Driver.flagged
  | _ -> []

(* clients that cannot contribute to [round]'s aggregate besides its C*:
   the dropouts and everyone banned by an earlier round *)
let absent rec_ ~round =
  let banned = List.concat (List.init (round - 1) (fun r -> ref_cstar rec_ ~round:(r + 1))) in
  List.sort_uniq compare (dropouts rec_.behaviours @ banned)

(* The oracle on a replayed (or reference) round. *)
let check_replayed rec_ ~round outcome =
  check ~expect_cstar:(ref_cstar rec_ ~round) ~absent:(absent rec_ ~round)
    ~updates:rec_.ref_updates.(round - 1) outcome

(* One replay repetition: a fresh session with the WAL armed as [serve
   --wal] arms it, every round pushed from the recording. [on_round] gets
   each round's outcome and its server wall seconds. *)
let replay cfg setup ~seed ~rec_ ~wal_path ~on_round =
  if Sys.file_exists wal_path then Sys.remove wal_path;
  let session = Driver.create_session setup ~seed:(session_seed cfg ~seed) in
  let wal = Round_log.create wal_path in
  let remote = remote_of rec_ in
  (* remote rounds compute no client work: dummies gate nothing *)
  let updates = Array.make cfg.n [||] and behaviours = Driver.honest_all cfg.n in
  Fun.protect
    ~finally:(fun () ->
      Round_log.close wal;
      if Sys.file_exists wal_path then Sys.remove wal_path)
    (fun () ->
      for round = 1 to cfg.rounds do
        let o, dt =
          Telemetry.Clock.time (fun () ->
              Driver.run_round_outcome ~remote ~wal ?stream:cfg.stream ~topology:cfg.topology
                session ~updates ~behaviours ~round)
        in
        ban_convicted session o;
        on_round ~round o dt
      done)
