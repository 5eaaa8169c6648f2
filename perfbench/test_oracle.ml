(* The benchmark's oracle must be able to fail. A tiny replay workload is
   recorded once; its untampered replay passes, while a wrong expected
   sum, a wrong expected C* and one tampered client frame each make the
   oracle report a failure (fail_share > 0). *)

module Setup = Risefl_core.Setup

let cfg =
  {
    Rb.name = "oracle-test";
    n = 4;
    m = 1;
    d = 16;
    k = 2;
    topology = Risefl_topology.Topology.Full;
    stream = None;
    backend = Rb.Replay;
    rounds = 1;
    dropouts = 0;
    oversized = 0;
  }

let seed = "t"
let wal_path = "oracle-test.wal"

let fail_share verdicts =
  let failed = List.length (List.filter Result.is_error verdicts) in
  float_of_int failed /. float_of_int (List.length verdicts)

let replay_verdicts setup rec_ =
  let verdicts = ref [] in
  Rb.replay cfg setup ~seed ~rec_ ~wal_path ~on_round:(fun ~round o _dt ->
      verdicts := Rb.check_replayed rec_ ~round o :: !verdicts);
  !verdicts

let expect name cond =
  if not cond then begin
    Printf.printf "FAIL: %s\n" name;
    exit 1
  end
  else Printf.printf "ok: %s\n" name

let () =
  let setup = Setup.create ~label:(Rb.setup_label cfg) (Rb.params cfg) in
  let rec_ = Rb.record cfg setup ~seed ~wal_path in
  let o = rec_.Rb.ref_outcomes.(0) and updates = rec_.Rb.ref_updates.(0) in
  expect "the reference round passes"
    (Result.is_ok (Rb.check ~expect_cstar:[] ~absent:[] ~updates o));
  expect "the untampered replay passes" (fail_share (replay_verdicts setup rec_) = 0.0);
  (* a wrong expected sum: one coordinate of one client's update off by one *)
  let wrong = Array.map Array.copy updates in
  wrong.(2).(5) <- wrong.(2).(5) + 1;
  expect "a wrong expected sum fails"
    (fail_share [ Rb.check ~expect_cstar:[] ~absent:[] ~updates:wrong o ] > 0.0);
  expect "a wrong expected C* fails"
    (fail_share [ Rb.check ~expect_cstar:[ 3 ] ~absent:[] ~updates o ] > 0.0);
  (* one tampered frame: flip a byte in the middle of client 2's proof *)
  let key = (1, Netsim.Proof) in
  let frames = Hashtbl.find rec_.Rb.frames key in
  let tampered =
    List.map
      (fun (sender, seq, frame) ->
        if sender <> 2 then (sender, seq, frame)
        else begin
          let f = Bytes.copy frame in
          let i = Bytes.length f / 2 in
          Bytes.set f i (Char.chr (Char.code (Bytes.get f i) lxor 0x5a));
          (sender, seq, f)
        end)
      frames
  in
  Hashtbl.replace rec_.Rb.frames key tampered;
  let verdicts = replay_verdicts setup rec_ in
  List.iter (function Error e -> Printf.printf "  oracle: %s\n" e | Ok () -> ()) verdicts;
  expect "a tampered proof frame fails" (fail_share verdicts > 0.0)
