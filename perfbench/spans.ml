(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around calls into a layer's public
   functions; nothing inside the program is instrumented.  Spans of one
   request share its request id, nest through their parent, and carry the
   ROADMAP stage name (parse, safety, compile, engine, decide, encode,
   query) so that an in-server stage histogram can reuse the names.  They
   are kept in memory — in flat arrays, so a long run does not grow the
   GC's work — and written out once the run ends. *)

type t = {
  mutable on : bool;
  mutable n : int;
  mutable req : int array;
  mutable parent : int array;  (** [-1] for a root *)
  mutable name : string array;
  mutable stage : string array;
  mutable t0 : float array;  (** µs, monotonic *)
  mutable t1 : float array;
  mutable top : int;  (** innermost open span, [-1] if none *)
  mutable cur_req : int;
}

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1000.

let create () =
  let cap = 1024 in
  { on = true; n = 0; req = Array.make cap 0; parent = Array.make cap 0;
    name = Array.make cap ""; stage = Array.make cap ""; t0 = Array.make cap 0.;
    t1 = Array.make cap 0.; top = -1; cur_req = -1 }

let set_request t req = t.cur_req <- req

let grow t =
  let cap = 2 * Array.length t.req in
  let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.req <- ext t.req 0;
  t.parent <- ext t.parent 0;
  t.name <- ext t.name "";
  t.stage <- ext t.stage "";
  t.t0 <- ext t.t0 0.;
  t.t1 <- ext t.t1 0.

let with_span t ~stage name f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.req then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.req.(id) <- t.cur_req;
    t.parent.(id) <- t.top;
    t.name.(id) <- name;
    t.stage.(id) <- stage;
    let outer = t.top in
    t.top <- id;
    t.t0.(id) <- now_us ();
    let close () =
      t.t1.(id) <- now_us ();
      t.top <- outer
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let duration t i = t.t1.(i) -. t.t0.(i)

type totals = { calls : int; total_us : float; self_us : float }

(* Per span name: calls, total time, and self time — a span's duration
   minus the time its children cover.  Children of one span run
   sequentially on the recording thread, so their durations add. *)
let totals t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let by_name = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let d = duration t i in
    let prev =
      Option.value ~default:{ calls = 0; total_us = 0.; self_us = 0. }
        (Hashtbl.find_opt by_name t.name.(i))
    in
    Hashtbl.replace by_name t.name.(i)
      { calls = prev.calls + 1; total_us = prev.total_us +. d; self_us = prev.self_us +. d -. child.(i) }
  done;
  by_name

let find totals name =
  Option.value ~default:{ calls = 0; total_us = 0.; self_us = 0. } (Hashtbl.find_opt totals name)

(* Mean duration per call, 0 for a layer that never ran. *)
let mean_us totals name =
  let x = find totals name in
  if x.calls = 0 then 0. else x.total_us /. float_of_int x.calls

(* The spans of requests below [max_req], one JSON object per line. *)
let write_jsonl ?(max_req = max_int) t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    if t.req.(i) < max_req then
      Printf.fprintf oc
        "{\"req\":%d,\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"stage\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n"
        t.req.(i) i t.parent.(i) t.name.(i) t.stage.(i) t.t0.(i) (duration t i)
  done;
  close_out oc
