(* The one timing estimator of the bench harness: n arms of one job, timed
   in alternating chunks so that noise lands on every arm alike.

   A virtualized host has two noise sources the design must beat:
   - CPU steal: the host can take the vCPU for ~1 ms inside any timing
     window, a 10-20% spike on a few-ms chunk.  Each round times every arm
     [passes] times back to back and keeps each arm's minimum, discarding
     the stolen windows.
   - clock drift: the effective speed wanders by several percent over
     100 ms+, which swamps a 2% effect measured from two aggregates taken
     seconds apart.  A ratio is therefore taken per round, between chunks
     that ran a few ms apart, so the drift cancels inside it; the report
     is the median and quartiles of those per-round ratios.  A global
     minimum per arm would compare each arm's single luckiest window and
     was observed to rank a no-op telemetry sink "slower" than a full
     recording.

   Each round starts with a major collection, so no round pays for the
   garbage of the one before, and one untimed chunk per arm: the first
   chunk after a major collection runs in a golden GC state (empty minor
   heap, fresh major cycle) that no later chunk sees.  The first arm
   rotates every pass, so no arm always runs first.  Inside a round an
   arm still pays major-GC work for garbage the other arms left; when the
   arms allocate very differently (row vs columnar engine) this
   understates the leaner arm's speedup. *)

type arm = int -> unit

type t = {
  reps : int;
  us : float array;
  ratio : (float * float * float) array;
}

let passes = 5
let min_chunk_us = 2000.
let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

(* linear interpolation between the two nearest ranks *)
let quantile q a =
  let b = Array.copy a in
  Array.sort compare b;
  let x = q *. float_of_int (Array.length b - 1) in
  let i = int_of_float x in
  if i + 1 >= Array.length b then b.(i)
  else b.(i) +. ((x -. float_of_int i) *. (b.(i + 1) -. b.(i)))

let run ?(clock = now_us) ~rounds arms =
  let n = Array.length arms in
  let time_chunk reps arm =
    let t0 = clock () in
    arm reps;
    clock () -. t0
  in
  let rec calibrate reps =
    if time_chunk reps arms.(0) >= min_chunk_us then reps else calibrate (2 * reps)
  in
  let reps = calibrate 1 in
  let best = Array.make_matrix n rounds infinity in
  for r = 0 to rounds - 1 do
    Gc.major ();
    Array.iter (fun arm -> arm reps) arms;
    for p = 0 to passes - 1 do
      for k = 0 to n - 1 do
        let i = ((r * passes) + p + k) mod n in
        let us = time_chunk reps arms.(i) /. float_of_int reps in
        best.(i).(r) <- Float.min best.(i).(r) us
      done
    done
  done;
  let ratio b =
    let per_round = Array.mapi (fun r x -> x /. best.(0).(r)) b in
    (quantile 0.25 per_round, quantile 0.5 per_round, quantile 0.75 per_round)
  in
  { reps; us = Array.map (quantile 0.5) best; ratio = Array.map ratio best }

let repeat f reps =
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done
