(* The estimator against a fake clock: arms advance simulated time by a
   known cost per rep, so every expected figure is exact. *)

let fake () =
  let now = ref 0. in
  let arm ?(spike = fun () -> 0.) cost reps =
    now := !now +. (cost *. float_of_int reps) +. spike ()
  in
  ((fun () -> !now), arm)

let close = Alcotest.float 1e-9

let ratio_of_1_10 () =
  let clock, arm = fake () in
  let t = Paired.run ~clock ~rounds:7 [| arm 100.; arm 110.; arm 50. |] in
  Alcotest.(check (list close)) "per-arm us" [ 100.; 110.; 50. ] (Array.to_list t.us);
  let q1, m, q3 = t.ratio.(1) in
  Alcotest.(check (list close)) "ratio quartiles" [ 1.1; 1.1; 1.1 ] [ q1; m; q3 ];
  let _, m2, _ = t.ratio.(2) in
  Alcotest.check close "faster arm" 0.5 m2

(* every third chunk of each arm is stolen by a 5 ms spike, so some pass
   of every round is clean and the per-round minimum must discard them *)
let spikes_discarded () =
  let clock, arm = fake () in
  let every_third () =
    let calls = ref 0 in
    fun () ->
      incr calls;
      if !calls mod 3 = 0 then 5000. else 0.
  in
  let t =
    Paired.run ~clock ~rounds:9
      [| arm ~spike:(every_third ()) 100.; arm ~spike:(every_third ()) 100. |]
  in
  Alcotest.(check (list close)) "per-arm us" [ 100.; 100. ] (Array.to_list t.us);
  let q1, m, q3 = t.ratio.(1) in
  Alcotest.(check (list close)) "ratio quartiles" [ 1.; 1.; 1. ] [ q1; m; q3 ]

let calibration_stops () =
  let clock, arm = fake () in
  let asked = ref [] in
  let arm0 reps =
    asked := reps :: !asked;
    arm 250. reps
  in
  let t = Paired.run ~clock ~rounds:1 [| arm0 |] in
  Alcotest.(check int) "reps" 8 t.reps;
  (* 8 reps x 250 us is exactly 2 ms: the first chunk >= 2 ms ends it *)
  let calibration = List.filteri (fun i _ -> i < 4) (List.rev !asked) in
  Alcotest.(check (list int)) "doubling" [ 1; 2; 4; 8 ] calibration

let first_arm_rotates () =
  let clock, arm = fake () in
  let log = ref [] in
  let arms = Array.init 3 (fun i reps -> log := i :: !log; arm 5000. reps) in
  let rounds = 2 in
  ignore (Paired.run ~clock ~rounds arms);
  (* one calibration chunk (5 ms >= 2 ms), then per round one untimed
     chunk per arm followed by the timed passes *)
  let calls = Array.of_list (List.tl (List.rev !log)) in
  let per_round = 3 * (1 + Paired.passes) in
  Alcotest.(check int) "calls" (rounds * per_round) (Array.length calls);
  let firsts =
    List.concat_map
      (fun r -> List.init Paired.passes (fun p -> calls.((r * per_round) + (3 * (p + 1)))))
      (List.init rounds Fun.id)
  in
  Alcotest.(check (list int)) "first arm of each pass" [ 0; 1; 2; 0; 1; 2; 0; 1; 2; 0 ] firsts

let () =
  Alcotest.run "paired"
    [ ( "paired",
        [ Alcotest.test_case "a 1.10x arm yields ratio 1.10" `Quick ratio_of_1_10;
          Alcotest.test_case "injected spikes are discarded" `Quick spikes_discarded;
          Alcotest.test_case "calibration stops at the first chunk >= 2 ms" `Quick
            calibration_stops;
          Alcotest.test_case "the first arm rotates across passes" `Quick first_arm_rotates ]
      ) ]
