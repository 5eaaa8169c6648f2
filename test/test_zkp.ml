(* ZKP layer tests: completeness (honest proofs verify), soundness
   negatives (mutated statements or proofs fail), transcript binding. *)

module Scalar = Curve25519.Scalar
module Point = Curve25519.Point
module Gens = Curve25519.Gens
module Transcript = Zkp.Transcript
module Sigma = Zkp.Sigma
module Ipa = Zkp.Ipa
module Range_proof = Zkp.Range_proof

let drbg = Prng.Drbg.create_string "test-zkp"
let g = Gens.derive "zkp-test/g"
let h = Gens.derive "zkp-test/h"
let q = Gens.derive "zkp-test/q"

(* --- transcript --- *)

let test_transcript_deterministic () =
  let mk () =
    let t = Transcript.create "proto" in
    Transcript.append_bytes t ~label:"m" (Bytes.of_string "hello");
    Transcript.challenge_scalar t ~label:"c"
  in
  Alcotest.(check bool) "same" true (Scalar.equal (mk ()) (mk ()))

let test_transcript_sensitive () =
  let challenge domain label msg =
    let t = Transcript.create domain in
    Transcript.append_bytes t ~label (Bytes.of_string msg);
    Transcript.challenge_scalar t ~label:"c"
  in
  let base = challenge "proto" "m" "hello" in
  Alcotest.(check bool) "domain" false (Scalar.equal base (challenge "other" "m" "hello"));
  Alcotest.(check bool) "label" false (Scalar.equal base (challenge "proto" "m2" "hello"));
  Alcotest.(check bool) "message" false (Scalar.equal base (challenge "proto" "m" "hellp"))

let test_transcript_challenge_chain () =
  let t = Transcript.create "proto" in
  let c1 = Transcript.challenge_scalar t ~label:"c" in
  let c2 = Transcript.challenge_scalar t ~label:"c" in
  Alcotest.(check bool) "successive challenges differ" false (Scalar.equal c1 c2)

(* --- representation proof --- *)

let test_repr_roundtrip () =
  for _ = 1 to 5 do
    let x = Scalar.random drbg and r = Scalar.random drbg in
    let c = Point.double_mul x g r h in
    let tr = Transcript.create "t" in
    let proof = Sigma.Repr.prove drbg tr ~g ~h ~c ~x ~r in
    let tv = Transcript.create "t" in
    Alcotest.(check bool) "verifies" true (Sigma.Repr.verify tv ~g ~h ~c proof)
  done

let test_repr_rejects () =
  let x = Scalar.random drbg and r = Scalar.random drbg in
  let c = Point.double_mul x g r h in
  let tr = Transcript.create "t" in
  let proof = Sigma.Repr.prove drbg tr ~g ~h ~c ~x ~r in
  (* wrong statement *)
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "wrong c" false (Sigma.Repr.verify tv ~g ~h ~c:(Point.add c g) proof);
  (* mutated response *)
  let tv = Transcript.create "t" in
  let bad = { proof with Sigma.Repr.z1 = Scalar.add proof.Sigma.Repr.z1 Scalar.one } in
  Alcotest.(check bool) "bad z1" false (Sigma.Repr.verify tv ~g ~h ~c bad);
  (* wrong domain *)
  let tv = Transcript.create "t2" in
  Alcotest.(check bool) "wrong domain" false (Sigma.Repr.verify tv ~g ~h ~c proof)

(* --- square proof --- *)

let test_square_roundtrip () =
  for _ = 1 to 5 do
    let x = Scalar.random drbg in
    let s = Scalar.random drbg and s' = Scalar.random drbg in
    let y1 = Point.double_mul x g s q in
    let y2 = Point.double_mul (Scalar.square x) g s' q in
    let tr = Transcript.create "t" in
    let proof = Sigma.Square.prove drbg tr ~g ~q ~y1 ~y2 ~x ~s ~s' in
    let tv = Transcript.create "t" in
    Alcotest.(check bool) "verifies" true (Sigma.Square.verify tv ~g ~q ~y1 ~y2 proof)
  done

let test_square_rejects_nonsquare () =
  let x = Scalar.of_int 5 in
  let s = Scalar.random drbg and s' = Scalar.random drbg in
  let y1 = Point.double_mul x g s q in
  (* y2 commits 26, not 25: an honest prover cannot exist, but check that a
     proof built with inconsistent witnesses fails *)
  let y2 = Point.double_mul (Scalar.of_int 26) g s' q in
  let tr = Transcript.create "t" in
  let proof = Sigma.Square.prove drbg tr ~g ~q ~y1 ~y2 ~x ~s ~s' in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "rejected" false (Sigma.Square.verify tv ~g ~q ~y1 ~y2 proof)

let test_square_small_values () =
  (* x = 0 and x = 1 edge cases *)
  List.iter
    (fun xv ->
      let x = Scalar.of_int xv in
      let s = Scalar.random drbg and s' = Scalar.random drbg in
      let y1 = Point.double_mul x g s q in
      let y2 = Point.double_mul (Scalar.square x) g s' q in
      let tr = Transcript.create "t" in
      let proof = Sigma.Square.prove drbg tr ~g ~q ~y1 ~y2 ~x ~s ~s' in
      let tv = Transcript.create "t" in
      Alcotest.(check bool) (Printf.sprintf "x=%d" xv) true (Sigma.Square.verify tv ~g ~q ~y1 ~y2 proof))
    [ 0; 1; -3 ]

(* --- well-formedness proof --- *)

let make_wf_instance k =
  let r = Scalar.random drbg in
  let hs = Gens.derive_many "zkp-test/hs" (k + 1) in
  let vs = Array.init (k + 1) (fun _ -> Scalar.random drbg) in
  let ss = Array.init k (fun _ -> Scalar.random drbg) in
  let z = Point.mul r g in
  let es = Array.init (k + 1) (fun t -> Point.double_mul vs.(t) g r hs.(t)) in
  let os = Array.init k (fun t -> Point.double_mul vs.(t + 1) g ss.(t) q) in
  (r, hs, vs, ss, z, es, os)

let test_wf_roundtrip () =
  let r, hs, vs, ss, z, es, os = make_wf_instance 4 in
  let tr = Transcript.create "t" in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es ~os ~r ~vs ~ss in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "verifies" true (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os proof)

let test_wf_rejects_mismatched_secret () =
  let r, hs, vs, ss, z, es, os = make_wf_instance 3 in
  (* o_2 commits a different value than e_3 *)
  let os = Array.copy os in
  os.(2) <- Point.double_mul (Scalar.add vs.(3) Scalar.one) g ss.(2) q;
  let tr = Transcript.create "t" in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es ~os ~r ~vs ~ss in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "rejected" false (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os proof)

let test_wf_rejects_wrong_blind_link () =
  let _, hs, vs, ss, z, es, os = make_wf_instance 3 in
  (* z commits a different r than the one in e_t *)
  let z' = Point.add z g in
  let tr = Transcript.create "t" in
  let r_fake = Scalar.random drbg in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z:z' ~es ~os ~r:r_fake ~vs ~ss in
  let tv = Transcript.create "t" in
  Alcotest.(check bool) "rejected" false (Sigma.Wf.verify tv ~g ~q ~hs ~z:z' ~es ~os proof);
  ignore z

let test_wf_shape_validation () =
  let _, hs, _, _, z, es, os = make_wf_instance 3 in
  let tr = Transcript.create "t" in
  Alcotest.check_raises "es shape" (Invalid_argument "Sigma.Wf: |es| must equal |hs|") (fun () ->
      ignore
        (Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es:(Array.sub es 0 2) ~os ~r:Scalar.one ~vs:[| Scalar.one |]
           ~ss:[| Scalar.one |]))

(* --- ipa --- *)

let bp_gens = Range_proof.make_gens ~label:"zkp-test" 64

let test_ipa_roundtrip () =
  List.iter
    (fun n ->
      let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
      let u = bp_gens.Range_proof.u in
      let a = Array.init n (fun _ -> Scalar.random drbg) in
      let b = Array.init n (fun _ -> Scalar.random drbg) in
      let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
      let p =
        Curve25519.Msm.msm
          (Array.concat
             [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv; [| (c, u) |] ])
      in
      let tr = Transcript.create "ipa" in
      let proof = Ipa.prove tr ~g:gv ~h:hv ~u ~a ~b in
      let tv = Transcript.create "ipa" in
      Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (Ipa.verify tv ~g:gv ~h:hv ~u ~p proof))
    [ 1; 2; 4; 16; 64 ]

let test_ipa_rejects_wrong_p () =
  let n = 8 in
  let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
  let u = bp_gens.Range_proof.u in
  let a = Array.init n (fun _ -> Scalar.random drbg) in
  let b = Array.init n (fun _ -> Scalar.random drbg) in
  let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
  let p =
    Curve25519.Msm.msm
      (Array.concat
         [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv; [| (c, u) |] ])
  in
  let tr = Transcript.create "ipa" in
  let proof = Ipa.prove tr ~g:gv ~h:hv ~u ~a ~b in
  let tv = Transcript.create "ipa" in
  Alcotest.(check bool) "wrong p" false (Ipa.verify tv ~g:gv ~h:hv ~u ~p:(Point.add p u) proof);
  let tv = Transcript.create "ipa" in
  let bad = { proof with Ipa.a = Scalar.add proof.Ipa.a Scalar.one } in
  Alcotest.(check bool) "bad a" false (Ipa.verify tv ~g:gv ~h:hv ~u ~p bad)

(* --- range proof --- *)

let bi = Bigint.of_int

let test_range_roundtrip () =
  List.iter
    (fun (bits, values) ->
      let values = Array.map bi values in
      let blinds = Array.map (fun _ -> Scalar.random drbg) values in
      let commitments =
        Array.map2 (fun v r -> Point.double_mul (Scalar.of_bigint v) g r h) values blinds
      in
      let tr = Transcript.create "rp" in
      let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits ~values ~blinds in
      let tv = Transcript.create "rp" in
      Alcotest.(check bool)
        (Printf.sprintf "bits=%d m=%d" bits (Array.length values))
        true
        (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits ~commitments proof))
    [
      (8, [| 0 |]);
      (8, [| 255 |]);
      (8, [| 37; 200 |]);
      (16, [| 65535; 0; 12345 |]) (* padded to m=4 *);
      (4, [| 15; 1; 2; 3; 4; 5 |]) (* padded to m=8 *);
    ]

let test_range_rejects_out_of_range () =
  (* the prover refuses out-of-range witnesses... *)
  let tr = Transcript.create "rp" in
  Alcotest.check_raises "witness too large" (Invalid_argument "Range_proof.prove: value out of range")
    (fun () ->
      ignore
        (Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values:[| bi 256 |]
           ~blinds:[| Scalar.random drbg |]))

let test_range_rejects_wrong_commitment () =
  (* ...and a verifier with a different commitment rejects *)
  let values = [| bi 100 |] in
  let blinds = [| Scalar.random drbg |] in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let wrong = [| Point.double_mul (Scalar.of_int 101) g blinds.(0) h |] in
  let tv = Transcript.create "rp" in
  Alcotest.(check bool) "rejects" false
    (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits:8 ~commitments:wrong proof)

let test_range_rejects_tampered_proof () =
  let values = [| bi 100; bi 50 |] in
  let blinds = Array.map (fun _ -> Scalar.random drbg) values in
  let commitments = Array.map2 (fun v r -> Point.double_mul (Scalar.of_bigint v) g r h) values blinds in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let tamper p msg =
    let tv = Transcript.create "rp" in
    Alcotest.(check bool) msg false (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits:8 ~commitments p)
  in
  tamper { proof with Range_proof.t_hat = Scalar.add proof.Range_proof.t_hat Scalar.one } "t_hat";
  tamper { proof with Range_proof.mu = Scalar.add proof.Range_proof.mu Scalar.one } "mu";
  tamper { proof with Range_proof.tau_x = Scalar.add proof.Range_proof.tau_x Scalar.one } "tau_x";
  tamper { proof with Range_proof.a = Point.add proof.Range_proof.a g } "A"

let test_range_bits_validation () =
  let tr = Transcript.create "rp" in
  Alcotest.check_raises "bits not pow2"
    (Invalid_argument "Range_proof: bits must be a power of two in [2, 128]") (fun () ->
      ignore
        (Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:12 ~values:[| bi 7 |]
           ~blinds:[| Scalar.random drbg |]))

let test_range_proof_size_logarithmic () =
  let prove_size values bits =
    let values = Array.map bi values in
    let blinds = Array.map (fun _ -> Scalar.random drbg) values in
    let tr = Transcript.create "rp" in
    let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits ~values ~blinds in
    Range_proof.size_bytes proof
  in
  let s8 = prove_size [| 1 |] 8 in
  let s64 = prove_size [| 1; 2; 3; 4 |] 16 in
  (* 8x the committed bits, only log growth in size *)
  Alcotest.(check bool) (Printf.sprintf "log growth: %d -> %d" s8 s64) true (s64 - s8 = 3 * 64)

let test_range_wrong_bits_at_verify () =
  (* verifying with a different bit width than proved must fail (the
     width is absorbed into the transcript) *)
  let values = [| bi 10 |] in
  let blinds = [| Scalar.random drbg |] in
  let commitments = [| Point.double_mul (Scalar.of_int 10) g blinds.(0) h |] in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let tv = Transcript.create "rp" in
  Alcotest.(check bool) "wrong bits" false
    (Range_proof.verify tv ~gens:bp_gens ~g ~h ~bits:16 ~commitments proof)

let test_range_swapped_bases () =
  (* verifying against swapped (g, h) bases must fail *)
  let values = [| bi 33 |] in
  let blinds = [| Scalar.random drbg |] in
  let commitments = [| Point.double_mul (Scalar.of_int 33) g blinds.(0) h |] in
  let tr = Transcript.create "rp" in
  let proof = Range_proof.prove drbg tr ~gens:bp_gens ~g ~h ~bits:8 ~values ~blinds in
  let tv = Transcript.create "rp" in
  Alcotest.(check bool) "swapped bases" false
    (Range_proof.verify tv ~gens:bp_gens ~g:h ~h:g ~bits:8 ~commitments proof)

let test_ipa_mutations () =
  let n = 8 in
  let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
  let u = bp_gens.Range_proof.u in
  let a = Array.init n (fun _ -> Scalar.random drbg) in
  let b = Array.init n (fun _ -> Scalar.random drbg) in
  let c = Array.fold_left Scalar.add Scalar.zero (Array.map2 Scalar.mul a b) in
  let p =
    Curve25519.Msm.msm
      (Array.concat
         [ Array.map2 (fun s pt -> (s, pt)) a gv; Array.map2 (fun s pt -> (s, pt)) b hv; [| (c, u) |] ])
  in
  let tr = Transcript.create "ipa" in
  let proof = Ipa.prove tr ~g:gv ~h:hv ~u ~a ~b in
  let mutations =
    [
      ("b response", { proof with Ipa.b = Scalar.add proof.Ipa.b Scalar.one });
      ("L[0]", { proof with Ipa.ls = (let l = Array.copy proof.Ipa.ls in l.(0) <- Point.add l.(0) u; l) });
      ("R[last]",
        { proof with
          Ipa.rs =
            (let r = Array.copy proof.Ipa.rs in
             let i = Array.length r - 1 in
             r.(i) <- Point.double r.(i);
             r) });
      ("truncated rounds", { proof with Ipa.ls = Array.sub proof.Ipa.ls 0 2; rs = Array.sub proof.Ipa.rs 0 2 });
    ]
  in
  List.iter
    (fun (name, bad) ->
      let tv = Transcript.create "ipa" in
      Alcotest.(check bool) name false (Ipa.verify tv ~g:gv ~h:hv ~u ~p bad))
    mutations

let test_wf_cross_client_transcripts () =
  (* a proof bound to one transcript context must not verify in another *)
  let r, hs, vs, ss, z, es, os = make_wf_instance 2 in
  let tr = Transcript.create "client-1" in
  let proof = Sigma.Wf.prove drbg tr ~g ~q ~hs ~z ~es ~os ~r ~vs ~ss in
  let tv = Transcript.create "client-2" in
  Alcotest.(check bool) "cross-context" false (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os proof);
  (* and with a response array truncated *)
  let tv = Transcript.create "client-1" in
  let bad = { proof with Sigma.Wf.zv = Array.sub proof.Sigma.Wf.zv 0 1 } in
  Alcotest.(check bool) "truncated zv" false (Sigma.Wf.verify tv ~g ~q ~hs ~z ~es ~os bad)

(* --- differential: the prover against the textbook formulation --- *)

(* The prover as first written, kept as the oracle: h' = h_i^{y^-i}
   materialized with one scalar multiplication per bit, A as a full MSM,
   and a sequential IPA that copies its vectors every round. The library
   prover must emit the same bytes at every job count. *)
module Reference = struct
  module Msm = Curve25519.Msm

  let dot a b =
    let acc = ref Scalar.zero in
    Array.iteri (fun i ai -> acc := Scalar.add !acc (Scalar.mul ai b.(i))) a;
    !acc

  let powers x n =
    let a = Array.make n Scalar.one in
    for i = 1 to n - 1 do
      a.(i) <- Scalar.mul a.(i - 1) x
    done;
    a

  let ipa_prove tr ~g ~h ~u ~a ~b =
    let g = ref g and h = ref h and a = ref a and b = ref b in
    let ls = ref [] and rs = ref [] in
    while Array.length !a > 1 do
      let half = Array.length !a / 2 in
      let lo v = Array.sub !v 0 half and hi v = Array.sub !v half half in
      let a_lo = lo a and a_hi = hi a and b_lo = lo b and b_hi = hi b in
      let g_lo = lo g and g_hi = hi g and h_lo = lo h and h_hi = hi h in
      let pairs = Array.map2 (fun s p -> (s, p)) in
      let l = Msm.msm (Array.concat [ pairs a_lo g_hi; pairs b_hi h_lo; [| (dot a_lo b_hi, u) |] ]) in
      let r = Msm.msm (Array.concat [ pairs a_hi g_lo; pairs b_lo h_hi; [| (dot a_hi b_lo, u) |] ]) in
      Transcript.append_point tr ~label:"ipa/L" l;
      Transcript.append_point tr ~label:"ipa/R" r;
      ls := l :: !ls;
      rs := r :: !rs;
      let x = Transcript.challenge_nonzero tr ~label:"ipa/x" in
      let xinv = Scalar.inv x in
      a := Array.init half (fun i -> Scalar.add (Scalar.mul a_lo.(i) x) (Scalar.mul a_hi.(i) xinv));
      b := Array.init half (fun i -> Scalar.add (Scalar.mul b_lo.(i) xinv) (Scalar.mul b_hi.(i) x));
      g := Array.init half (fun i -> Point.double_mul xinv g_lo.(i) x g_hi.(i));
      h := Array.init half (fun i -> Point.double_mul x h_lo.(i) xinv h_hi.(i))
    done;
    { Ipa.ls = Array.of_list (List.rev !ls); rs = Array.of_list (List.rev !rs); a = !a.(0); b = !b.(0) }

  let range_prove drbg tr ~gens ~g ~h ~bits ~values ~blinds =
    let m_orig = Array.length values in
    let m = ref 1 in
    while !m < m_orig do
      m := 2 * !m
    done;
    let m = !m in
    let values = Array.append values (Array.make (m - m_orig) Bigint.zero) in
    let blinds = Array.append blinds (Array.make (m - m_orig) Scalar.zero) in
    let nt = bits * m in
    let gv = Array.sub gens.Range_proof.gv 0 nt and hv = Array.sub gens.Range_proof.hv 0 nt in
    let commitments =
      Array.init m_orig (fun j -> Point.double_mul (Scalar.of_bigint values.(j)) g blinds.(j) h)
    in
    Transcript.append_int tr ~label:"rp/bits" bits;
    Transcript.append_point tr ~label:"rp/g" g;
    Transcript.append_point tr ~label:"rp/h" h;
    Transcript.append_points tr ~label:"rp/V" commitments;
    let al =
      Array.init nt (fun i -> if Bigint.testbit values.(i / bits) (i mod bits) then Scalar.one else Scalar.zero)
    in
    let ar = Array.map (fun b -> Scalar.sub b Scalar.one) al in
    let vec_commit blind l r =
      Msm.msm
        (Array.concat [ [| (blind, h) |]; Array.mapi (fun i s -> (s, gv.(i))) l; Array.mapi (fun i s -> (s, hv.(i))) r ])
    in
    let alpha = Scalar.random drbg in
    let a_pt = vec_commit alpha al ar in
    let sl = Array.init nt (fun _ -> Scalar.random drbg) in
    let sr = Array.init nt (fun _ -> Scalar.random drbg) in
    let rho = Scalar.random drbg in
    let s_pt = vec_commit rho sl sr in
    Transcript.append_point tr ~label:"rp/A" a_pt;
    Transcript.append_point tr ~label:"rp/S" s_pt;
    let y = Transcript.challenge_nonzero tr ~label:"rp/y" in
    let z = Transcript.challenge_nonzero tr ~label:"rp/z" in
    let ys = powers y nt in
    let zjs = powers z (m + 2) in
    let zv = Array.init nt (fun i -> Scalar.mul zjs.(2 + (i / bits)) (Scalar.of_bigint (Bigint.shift_left Bigint.one (i mod bits)))) in
    let l0 = Array.map (fun b -> Scalar.sub b z) al in
    let r0 = Array.mapi (fun i b -> Scalar.add (Scalar.mul ys.(i) (Scalar.add b z)) zv.(i)) ar in
    let r1 = Array.mapi (fun i s -> Scalar.mul ys.(i) s) sr in
    let t0 = dot l0 r0 and t2 = dot sl r1 in
    let t1 = Scalar.sub (Scalar.sub (dot (Array.map2 Scalar.add l0 sl) (Array.map2 Scalar.add r0 r1)) t0) t2 in
    let tau1 = Scalar.random drbg and tau2 = Scalar.random drbg in
    let t1_pt = Point.double_mul t1 g tau1 h and t2_pt = Point.double_mul t2 g tau2 h in
    Transcript.append_point tr ~label:"rp/T1" t1_pt;
    Transcript.append_point tr ~label:"rp/T2" t2_pt;
    let x = Transcript.challenge_nonzero tr ~label:"rp/x" in
    let l = Array.init nt (fun i -> Scalar.add l0.(i) (Scalar.mul sl.(i) x)) in
    let r = Array.init nt (fun i -> Scalar.add r0.(i) (Scalar.mul r1.(i) x)) in
    let t_hat = dot l r in
    let blind_term = ref Scalar.zero in
    Array.iteri (fun j gamma -> blind_term := Scalar.add !blind_term (Scalar.mul zjs.(j + 2) gamma)) blinds;
    let tau_x = Scalar.add (Scalar.add (Scalar.mul tau1 x) (Scalar.mul tau2 (Scalar.square x))) !blind_term in
    let mu = Scalar.add alpha (Scalar.mul rho x) in
    Transcript.append_scalar tr ~label:"rp/t_hat" t_hat;
    Transcript.append_scalar tr ~label:"rp/tau_x" tau_x;
    Transcript.append_scalar tr ~label:"rp/mu" mu;
    let w = Transcript.challenge_nonzero tr ~label:"rp/w" in
    let u_x = Point.mul w gens.Range_proof.u in
    let yinv_pows = powers (Scalar.inv y) nt in
    let hv' = Array.init nt (fun i -> Point.mul yinv_pows.(i) hv.(i)) in
    let ipa = ipa_prove tr ~g:gv ~h:hv' ~u:u_x ~a:l ~b:r in
    { Range_proof.a = a_pt; s = s_pt; t1 = t1_pt; t2 = t2_pt; t_hat; tau_x; mu; ipa }
end

let ipa_bytes (p : Ipa.proof) =
  String.concat ""
    (List.map (fun q -> Bytes.to_string (Point.compress q)) (Array.to_list p.Ipa.ls @ Array.to_list p.Ipa.rs)
    @ List.map (fun s -> Bytes.to_string (Scalar.to_bytes s)) [ p.Ipa.a; p.Ipa.b ])

let proof_bytes (p : Range_proof.proof) =
  String.concat ""
    (List.map (fun q -> Bytes.to_string (Point.compress q)) [ p.Range_proof.a; p.s; p.t1; p.t2 ]
    @ List.map (fun s -> Bytes.to_string (Scalar.to_bytes s)) [ p.t_hat; p.tau_x; p.mu ]
    @ [ ipa_bytes p.ipa ])

let with_jobs j f =
  let saved = Parallel.default_jobs () in
  Parallel.set_default_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.set_default_jobs saved) f

(* point.scalarmul and msm.points are fixed by the algorithm alone; add,
   double and madd also follow the MSM chunk layout, which moves with the
   job count *)
let op_counters = [ "point.add"; "point.double"; "point.madd"; "point.scalarmul"; "msm.points" ]
let jobs_invariant = [ "point.scalarmul"; "msm.points" ]

(* [f ()] and the deltas of [op_counters] it caused *)
let count_ops f =
  let cells = List.map Telemetry.Counter.make op_counters in
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Telemetry.disable ()) @@ fun () ->
  let before = List.map Telemetry.Counter.value cells in
  let r = f () in
  (r, List.map2 (fun c b -> Telemetry.Counter.value c - b) cells before)

let invariant_ops ops = List.filter_map (fun (n, v) -> if List.mem n jobs_invariant then Some v else None) (List.combine op_counters ops)

let diff_gens = lazy (Range_proof.make_gens ~label:"zkp-diff" 4096)

(* seeded statement: values in [0, 2^bits), the extremes included *)
let diff_case ~bits ~m =
  let d = Prng.Drbg.create_string (Printf.sprintf "zkp-diff/%d/%d" bits m) in
  let top = Bigint.sub (Bigint.shift_left Bigint.one bits) Bigint.one in
  let values =
    Array.init m (fun j ->
        if j = 0 then top else if j = 1 then Bigint.zero else Bigint.random ~bits (Prng.Drbg.rand26 d))
  in
  let blinds = Array.map (fun _ -> Scalar.random d) values in
  (values, blinds)

let test_range_differential () =
  let gens = Lazy.force diff_gens in
  List.iter
    (fun (bits, m) ->
      let values, blinds = diff_case ~bits ~m in
      let commitments = Array.map2 (fun v r -> Point.double_mul (Scalar.of_bigint v) g r h) values blinds in
      let seed = Printf.sprintf "zkp-diff/prover/%d/%d" bits m in
      let prove_with f = f (Prng.Drbg.create_string seed) (Transcript.create "rp-diff") in
      let expected =
        proof_bytes (prove_with (fun drbg tr -> Reference.range_prove drbg tr ~gens ~g ~h ~bits ~values ~blinds))
      in
      let runs =
        List.map
          (fun jobs ->
            let proof, ops =
              with_jobs jobs (fun () ->
                  count_ops (fun () ->
                      prove_with (fun drbg tr -> Range_proof.prove drbg tr ~gens ~g ~h ~bits ~values ~blinds)))
            in
            let name = Printf.sprintf "bits=%d m=%d jobs=%d" bits m jobs in
            Alcotest.(check string) (name ^ " bytes") expected (proof_bytes proof);
            (name, proof, invariant_ops ops))
          [ 1; 2; 4 ]
      in
      let _, proof, ops1 = List.hd runs in
      List.iter (fun (name, _, ops) -> Alcotest.(check (list int)) (name ^ " scalarmul, msm.points") ops1 ops) runs;
      (* the three proofs are the same bytes, so one check of each verifier covers them *)
      let name = Printf.sprintf "bits=%d m=%d" bits m in
      Alcotest.(check bool) (name ^ " verify") true
        (Range_proof.verify (Transcript.create "rp-diff") ~gens ~g ~h ~bits ~commitments proof);
      let acc = Curve25519.Msm.Acc.create () in
      let rd = Prng.Drbg.create_string (seed ^ "/rho") in
      let ok =
        Range_proof.accumulate ~rho:(fun () -> Scalar.random rd) ~push:(Curve25519.Msm.Acc.push acc)
          (Transcript.create "rp-diff") ~gens ~g ~h ~bits ~commitments proof
      in
      Alcotest.(check bool) (name ^ " accumulate") true (ok && Curve25519.Msm.Acc.is_identity acc))
    (List.concat_map (fun bits -> List.map (fun m -> (bits, m)) [ 1; 3; 6; 32 ]) [ 2; 8; 32; 128 ])

let test_ipa_factors () =
  List.iter
    (fun n ->
      let gv = Array.sub bp_gens.Range_proof.gv 0 n and hv = Array.sub bp_gens.Range_proof.hv 0 n in
      let u = bp_gens.Range_proof.u in
      let a = Array.init n (fun _ -> Scalar.random drbg) in
      let b = Array.init n (fun _ -> Scalar.random drbg) in
      let f = Array.init n (fun _ -> Scalar.random drbg) in
      let hv' = Array.map2 Point.mul f hv in
      let run prove = ipa_bytes (prove (Transcript.create "ipa-f")) in
      let expected = run (fun tr -> Reference.ipa_prove tr ~g:gv ~h:hv' ~u ~a ~b) in
      let name = Printf.sprintf "n=%d" n in
      Alcotest.(check string) (name ^ " over h'") expected (run (fun tr -> Ipa.prove tr ~g:gv ~h:hv' ~u ~a ~b));
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s factors jobs=%d" name jobs)
            expected
            (with_jobs jobs (fun () -> run (fun tr -> Ipa.prove ~h_factors:f tr ~g:gv ~h:hv ~u ~a ~b))))
        [ 1; 2; 4 ])
    [ 1; 2; 8; 64 ]

(* --- op-count budget of one proof --- *)

(* Exact counts of one client-shaped proof (fixed-base tables for g, h) at
   jobs = 1: per-bit scalar multiplications or an MSM-built A coming back
   moves them. The differential test checks the jobs-invariant ones at
   other job counts. *)
let test_prove_op_budget () =
  let gens = Lazy.force diff_gens in
  let g_table = Point.Table.make g and h_table = Point.Table.make h in
  List.iter
    (fun (label, bits, m, expected) ->
      let values, blinds = diff_case ~bits ~m in
      let (), ops =
        with_jobs 1 (fun () ->
            count_ops (fun () ->
                ignore
                  (Range_proof.prove ~g_table ~h_table (Prng.Drbg.create_string "zkp-budget")
                     (Transcript.create "rp-budget") ~gens ~g ~h ~bits ~values ~blinds)))
      in
      List.iter2 (fun name (e, got) -> Alcotest.(check int) (label ^ " " ^ name) e got) op_counters
        (List.combine expected ops))
    [
      ("sigma", 32, 32, [ 473766; 521832; 220109; 4162; 6161 ]);
      ("mu", 128, 1, [ 78776; 67994; 39534; 516; 779 ]);
    ]

let () =
  Alcotest.run "zkp"
    [
      ( "transcript",
        [
          Alcotest.test_case "deterministic" `Quick test_transcript_deterministic;
          Alcotest.test_case "sensitive" `Quick test_transcript_sensitive;
          Alcotest.test_case "challenge chain" `Quick test_transcript_challenge_chain;
        ] );
      ( "repr",
        [
          Alcotest.test_case "roundtrip" `Quick test_repr_roundtrip;
          Alcotest.test_case "rejects" `Quick test_repr_rejects;
        ] );
      ( "square",
        [
          Alcotest.test_case "roundtrip" `Quick test_square_roundtrip;
          Alcotest.test_case "rejects non-square" `Quick test_square_rejects_nonsquare;
          Alcotest.test_case "small values" `Quick test_square_small_values;
        ] );
      ( "wf",
        [
          Alcotest.test_case "roundtrip" `Quick test_wf_roundtrip;
          Alcotest.test_case "rejects mismatched secret" `Quick test_wf_rejects_mismatched_secret;
          Alcotest.test_case "rejects wrong blind link" `Quick test_wf_rejects_wrong_blind_link;
          Alcotest.test_case "shape validation" `Quick test_wf_shape_validation;
        ] );
      ( "ipa",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipa_roundtrip;
          Alcotest.test_case "rejects" `Quick test_ipa_rejects_wrong_p;
          Alcotest.test_case "h factors equal materialized h'" `Quick test_ipa_factors;
        ] );
      ( "range",
        [
          Alcotest.test_case "roundtrip" `Quick test_range_roundtrip;
          Alcotest.test_case "rejects out of range witness" `Quick test_range_rejects_out_of_range;
          Alcotest.test_case "rejects wrong commitment" `Quick test_range_rejects_wrong_commitment;
          Alcotest.test_case "rejects tampered proof" `Quick test_range_rejects_tampered_proof;
          Alcotest.test_case "bits validation" `Quick test_range_bits_validation;
          Alcotest.test_case "size logarithmic" `Quick test_range_proof_size_logarithmic;
          Alcotest.test_case "wrong bits at verify" `Quick test_range_wrong_bits_at_verify;
          Alcotest.test_case "swapped bases" `Quick test_range_swapped_bases;
          Alcotest.test_case "byte-identical to reference prover" `Slow test_range_differential;
          Alcotest.test_case "prove op-count budget" `Slow test_prove_op_budget;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "ipa field mutations" `Quick test_ipa_mutations;
          Alcotest.test_case "wf cross-client transcript" `Quick test_wf_cross_client_transcripts;
        ] );
    ]
