(* Unit tests of the serve benchmark's own rules: the highest supported
   percentile, open-loop lateness accounting, and generator determinism. *)

open Fqbench

let test_supported_percentile () =
  let check n expect =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expect (Pstats.highest_supported n)
  in
  check 0 None;
  check 19 None;
  (* p50 needs ten samples beyond rank ceil(n/2) *)
  check 20 (Some 0.5);
  check 99 (Some 0.5);
  check 100 (Some 0.9);
  check 999 (Some 0.9);
  check 1000 (Some 0.99);
  check 9999 (Some 0.99);
  check 10_000 (Some 0.999);
  Alcotest.(check bool) "p99 of 1000 leaves ten beyond" true (Pstats.supports 1000 0.99);
  Alcotest.(check bool) "p99 of 999 leaves nine" false (Pstats.supports 999 0.99)

let test_quantiles () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "median" 50. (Pstats.median a);
  Alcotest.(check (float 0.)) "p99" 99. (Pstats.quantile a 0.99);
  Alcotest.(check (float 0.)) "p100" 100. (Pstats.quantile a 1.);
  (* one stalled chunk moves its own p99, not the median over chunks (each
     clean chunk holds 0..99 ten times, so its p99 is 98) *)
  let b = Array.init 5000 (fun i -> if i >= 1000 && i < 2000 then 1e6 else float_of_int (i mod 100)) in
  Alcotest.(check (float 0.)) "chunked p99" 98. (Pstats.chunked_quantile ~chunk:1000 b 0.99)

let test_rate_median () =
  (* 100 completions per second for five seconds, one second stalled *)
  let times =
    Array.of_list
      (List.concat_map
         (fun s -> if s = 2 then [] else List.init 100 (fun i -> (float_of_int s +. (float_of_int i /. 100.)) *. 1e6))
         [ 0; 1; 2; 3; 4 ])
  in
  Alcotest.(check (float 1e-9)) "median rate" 100. (Pstats.rate_median ~window:1. ~t0:0. times)

(* A generator stall: requests due every 1 ms, the sender blocks for 10 ms
   before request 2, then sends 2..11 at once.  Their latency is charged
   from the due time, so the stall shows in every delayed request. *)
let test_lateness () =
  let due = Pstats.due_times ~t0:0. ~rate:1. 12 in
  Alcotest.(check (float 1e-9)) "due of 5" 5. due.(5);
  let sent = Array.mapi (fun i d -> if i < 2 then d else 12.) due in
  let samples = Array.mapi (fun i d -> { Pstats.due = d; sent = sent.(i); recv = sent.(i) +. 0.5 }) due in
  Alcotest.(check (float 1e-9)) "on-time latency" 0.5 (Pstats.latency samples.(0));
  Alcotest.(check (float 1e-9)) "late request lateness" 10. (Pstats.lateness samples.(2));
  Alcotest.(check (float 1e-9)) "late request latency counts the stall" 10.5 (Pstats.latency samples.(2));
  Alcotest.(check (float 1e-9)) "last delayed" 1.5 (Pstats.latency samples.(11));
  let lat = Array.init 100 (fun i -> if i < 50 then 1. else float_of_int i) in
  Alcotest.(check bool) "growing backlog" true (Pstats.growing_backlog lat ~slack:1.);
  Alcotest.(check bool) "steady" false (Pstats.growing_backlog (Array.make 100 1.) ~slack:1.)

let gen w seed =
  let tmp = Filename.temp_file "perfbench" ".state" in
  match Gen.generate w ~seed ~n:200 ~tmp with
  | Ok i -> i
  | Error e -> Alcotest.fail e

let test_determinism () =
  List.iter
    (fun (name, w) ->
      let a = gen w 7 and b = gen w 7 and c = gen w 8 in
      Alcotest.(check string) (name ^ " state") a.Gen.state b.Gen.state;
      Alcotest.(check (array string)) (name ^ " lines") a.Gen.lines b.Gen.lines;
      Alcotest.(check (option string)) (name ^ " snapshot") a.Gen.snapshot b.Gen.snapshot;
      Alcotest.(check string) (name ^ " digest") (Gen.digest a) (Gen.digest b);
      Alcotest.(check bool) (name ^ " other seed differs") false (Gen.digest a = Gen.digest c))
    Gen.workloads

let test_decide_truth () =
  (* window answers are a < x < b by construction *)
  let it = Gen.window ~a:100 ~b:104 in
  Alcotest.(check int) "window size" 3 (Fq_db.Relation.cardinal (Option.get it.Gen.truth))

let () =
  Alcotest.run "perfbench"
    [ ( "pstats",
        [ Alcotest.test_case "highest supported percentile" `Quick test_supported_percentile;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "open-loop lateness" `Quick test_lateness;
          Alcotest.test_case "median rate" `Quick test_rate_median ] );
      ( "gen",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "window truth" `Quick test_decide_truth ] ) ]
