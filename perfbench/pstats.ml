(* Sample statistics for the serve benchmark: nearest-rank quantiles, the
   highest percentile a sample supports, and open-loop lateness
   accounting. *)

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* 1-based nearest rank of quantile [q] in [n] samples. *)
let rank n q = max 1 (min n (int_of_float (ceil ((q *. float_of_int n) -. 1e-9))))

(* Nearest-rank quantile of an already sorted array; [nan] when empty. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan else s.(rank n q - 1)

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

(* A percentile is supported by [n] samples when at least ten samples lie
   beyond its nearest rank. *)
let supports n q = n - rank n q >= 10

let percentile_ladder = [ 0.5; 0.9; 0.99; 0.999 ]

let highest_supported n =
  List.fold_left (fun acc q -> if supports n q then Some q else acc) None percentile_ladder

(* Quantile [q] of each consecutive chunk of [chunk] samples (a short tail
   is folded into the last chunk), and the median of those: one stalled
   second moves one chunk, not the reported figure.  With fewer than two
   chunks' worth of samples this is the plain quantile. *)
let chunked_quantile ~chunk a q =
  let n = Array.length a in
  let k = if chunk <= 0 then 1 else max 1 (n / chunk) in
  if k < 2 then quantile a q
  else
    median
      (Array.init k (fun j ->
           let lo = j * chunk in
           let hi = if j = k - 1 then n else lo + chunk in
           quantile (Array.sub a lo (hi - lo)) q))

(* Completions per second: the median over the whole [window]-second
   intervals from [t0] of the number of [times] falling in each (times
   and [t0] in µs), so a stalled second moves one interval, not the
   figure.  With no whole interval, the plain rate. *)
let rate_median ~window ~t0 times =
  let w = window *. 1e6 in
  let last = Array.fold_left Float.max t0 times in
  let k = int_of_float ((last -. t0) /. w) in
  if k < 1 then float_of_int (Array.length times) /. Float.max 1e-9 ((last -. t0) /. 1e6)
  else begin
    let counts = Array.make k 0. in
    Array.iter
      (fun t ->
        let i = int_of_float ((t -. t0) /. w) in
        if i >= 0 && i < k then counts.(i) <- counts.(i) +. 1.)
      times;
    median counts /. window
  end

(* Open-loop accounting.  Request [i] of a schedule at [rate] per second
   is due at [t0 + i / rate]; a generator that stalls sends late, and the
   stall is charged to every request it delayed because latency runs from
   the due time, not the send time. *)
type sample = { due : float; sent : float; recv : float }

let due_times ~t0 ~rate n = Array.init n (fun i -> t0 +. (float_of_int i /. rate))
let latency s = s.recv -. s.due
let lateness s = s.sent -. s.due

(* A backlog keeps growing when the last fifth of a step waits clearly
   longer than the first fifth. *)
let growing_backlog latencies ~slack =
  let n = Array.length latencies in
  if n < 10 then false
  else
    let fifth = n / 5 in
    let first = median (Array.sub latencies 0 fifth) in
    let last = median (Array.sub latencies (n - fifth) fifth) in
    last > (2. *. first) +. slack
