(** Paired-arm timing: the bench harness's only estimator. *)

type arm = int -> unit
(** [arm reps] runs the arm's job [reps] times back to back. *)

type t = {
  reps : int;  (** calibrated chunk length, shared by every arm *)
  us : float array;
      (** per arm: median over rounds of the round's best chunk, per rep *)
  ratio : (float * float * float) array;
      (** per arm: 25th, 50th and 75th percentile over rounds of the
          round's arm / arm 0 ratio ([(1, 1, 1)] for arm 0) *)
}

val passes : int
(** Timed chunks of every arm per round (5). *)

val run : ?clock:(unit -> float) -> rounds:int -> arm array -> t
(** [run ~rounds arms] calibrates the chunk length on [arms.(0)] (reps
    double from 1 until one chunk takes at least 2 ms), then runs
    [rounds] rounds.  A round is a major collection, one untimed
    chunk per arm in order, then {!passes} passes that time one chunk of
    every arm; pass [p] of round [r] starts at arm [(r * passes + p) mod
    n] and goes on in index order.  Each arm keeps its minimum per round.
    [clock] reads microseconds (default: the monotonic clock). *)

val repeat : (unit -> 'a) -> arm
(** [repeat f] is the arm running [f] once per rep. *)
