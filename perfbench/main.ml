(* The serve benchmark: drives the real `fq serve` binary with seeded,
   generated inputs and reports end-to-end metrics (tracing off) or
   per-layer metrics (a separate traced run).

     main.exe --workload W --seed N --seconds S --trace 0|1 --fq FQ_EXE
              [--workdir DIR]

   Workloads (their inputs are described in Gen):
   - serve_point  cheap lookups and 1-hop queries over a small F/2, then
                  an open-loop ladder of offered rates; exposes wire,
                  admission, queue handoff and telemetry cost.
   - serve_join   chain/cycle/difference joins over a 12k-edge graph;
                  exposes the columnar engine, the optimizer and Outcome
                  encoding.
   - serve_decide N_< windows (enumerate tier) and Presburger sentences
                  behind a snapshot + journal; exposes Decide_cache, QE and
                  Journal.

   Every reply is checked against an oracle computed outside the served
   path; the last stdout line is the JSON result. *)

open Fqbench
module Json = Fq_core.Json
module Aggregate = Fq_core.Aggregate
module Budget = Fq_core.Budget
module Protocol = Fq_server.Protocol
module Journal = Fq_server.Journal
module Outcome = Fq_eval.Outcome
module Query = Fq_eval.Query
module Relation = Fq_db.Relation
module State = Fq_db.State
module Codec = Fq_db.Codec
module Stats = Fq_db.Optimizer.Stats
module Decide_cache = Fq_domain.Decide_cache
module Domain_ = Fq_domain.Domain

let now_us = Spans.now_us

external set_timerslack_ns : int -> unit = "perfbench_set_timerslack_ns"
external pin_last_cpu : unit -> int = "perfbench_pin_last_cpu"
external die_with_parent : unit -> unit = "perfbench_die_with_parent"
let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* --------------------------- configuration ---------------------------- *)

(* Every workload runs its reference load as a closed loop over one
   connection (the next request goes out once the previous reply
   arrived), against `fq serve -j 1`, with the benchmark and the server
   pinned to one CPU.  serve_point then offers an open-loop [ladder] of
   fixed rates over the same connection: a sender thread paces requests
   while the main thread reads replies.

   Why one connection on one CPU: on a 2-vCPU VM, in five to ten runs of
   20-30 s each, the p50 varied from run to run (interquartile range over
   median) by 0.28-0.38 at a fixed open-loop rate, where idle wake-ups
   dominate; by 0.11-0.35 unpinned, because the scheduler kept client and
   server on one CPU (serve_point p50 ~48 us) or on two (~65-85 us) for
   whole runs; and by 0.02 pinned.  Two connections on two workers varied
   by up to 0.17 on serve_decide. *)
type config = {
  default_domain : string;
  ladder : float list;  (** offered rates, requests per second *)
  slo_p99_us : float;  (** p99 latency limit *)
}

let config = function
  | Gen.Point -> { default_domain = "equality"; ladder = [ 2000.; 4000.; 8000. ]; slo_p99_us = 5_000. }
  | Gen.Join -> { default_domain = "equality"; ladder = []; slo_p99_us = 250_000. }
  | Gen.Decide -> { default_domain = "presburger"; ladder = []; slo_p99_us = 1_000_000. }

let setups = 15
let warmup_s = 0.5

(* ------------------------------ the oracle ---------------------------- *)

(* Expected reply fragment per pool item: the Outcome fields from status
   through answer, exactly as the server prints them.  A reply is correct
   when it carries this fragment; the full decode (deferred out of the
   latency window) then confirms it structurally. *)
type expect = { rel : Relation.t; tier : string; fragment : string }

let fragment ~tier rel =
  Printf.sprintf "\"status\":\"complete\",\"tier\":%s,\"answer\":%s,\"usage\":"
    (Json.to_string (Json.Str tier))
    (Json.to_string (Outcome.relation_to_json rel))

let domain_of name =
  match Protocol.find_domain name with Some d -> d | None -> fail "unknown domain %s" name

(* serve_point / serve_join: an in-process Query.eval_resilient on the
   same state and formula, plus ranf-vs-adom agreement (E2/E15) on the
   first [adom_checks] pool entries, which cover every template (the adom
   plan costs ~17 ms per serve_join query).  serve_decide: the truth known
   by construction. *)
let adom_checks = 64

let oracle (inp : Gen.inputs) ~state ~cfg =
    Array.mapi
      (fun k (it : Gen.item) ->
        let dom = domain_of (Option.value it.domain ~default:cfg.default_domain) in
        let f =
          match Fq_logic.Parser.formula it.formula with
          | Ok f -> f
          | Error e -> fail "oracle: %s: %s" it.formula e
        in
        match it.truth with
        | Some rel -> { rel; tier = "enumerate"; fragment = fragment ~tier:"enumerate" rel }
        | None -> (
          let rep =
            Query.eval_resilient ~budget:(Budget.of_fuel Gen.request_fuel) ~domain:dom ~state f
          in
          match rep.Outcome.verdict with
          | Outcome.Complete { answer; tier } ->
            (if k < adom_checks then
               match Fq_eval.Algebra_translate.run ~domain:dom ~state f with
               | Ok adom when Relation.equal adom answer -> ()
               | Ok _ -> fail "oracle: ranf and adom disagree on %s" it.formula
               | Error e -> fail "oracle: adom failed on %s: %s" it.formula e);
            { rel = answer; tier; fragment = fragment ~tier answer }
          | _ -> fail "oracle: %s is not complete in-process" it.formula))
      inp.pool

let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1
    else if String.unsafe_get s i = String.unsafe_get sub 0 && String.sub s i m = sub then i
    else go (i + 1)
  in
  go i

let fragment_ok (e : expect) line =
  let k = find_from line 0 "\"status\":" in
  k >= 0
  && k + String.length e.fragment <= String.length line
  && String.sub line k (String.length e.fragment) = e.fragment

(* Full structural check: parse, classify, decode the Outcome, compare. *)
let decode_ok (e : expect) line =
  match Json.parse line with
  | Error _ -> false
  | Ok j -> (
    match Protocol.classify_reply j with
    | Ok (_, Protocol.R_outcome { Outcome.verdict = Outcome.Complete { answer; tier }; _ }) ->
      tier = e.tier && Relation.equal answer e.rel
    | _ -> false)

let reply_id line =
  (* replies start {"id":"N", ... *)
  if String.length line > 8 && String.sub line 0 7 = "{\"id\":\"" then
    match String.index_from_opt line 7 '"' with
    | Some j -> Some (String.sub line 7 (j - 7))
    | None -> None
  else None

(* ------------------------------ the server ---------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
    Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type server = { pid : int; sock : string; mutable live : bool }

let live_servers : server list ref = ref []

let kill s =
  if s.live then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.live <- false
  end

let kill_all () = List.iter kill !live_servers

let files_of w =
  let name = Gen.workload_name w in
  (name ^ ".state", name ^ ".snapshot", name ^ ".sock", name ^ ".serve.log")

(* Spawn `fq serve` and wait for its first answered request (a ping):
   the span is the set-up time — process start, state load, optimizer
   statistics, snapshot load and journal recovery. *)
let spawn ~fq ~w ~cfg ~(inp : Gen.inputs) =
  let state_f, snap_f, sock, log_f = files_of w in
  (match inp.snapshot with
  | Some s ->
    Gen.write_file snap_f s;
    if Sys.file_exists (snap_f ^ ".journal") then Sys.remove (snap_f ^ ".journal")
  | None -> ());
  if Sys.file_exists sock then Sys.remove sock;
  let args =
    (* one open-loop connection stands for many independent users, so the
       per-connection in-flight cap is lifted to the server-wide one *)
    [ fq; "serve"; "--socket"; sock; "-d"; cfg.default_domain; "--state-file"; state_f; "-j";
      "1"; "--fuel"; string_of_int Gen.request_fuel; "--client-share"; "256" ]
    @ match inp.snapshot with Some _ -> [ "--snapshot"; snap_f ] | None -> []
  in
  let logfd = Unix.openfile log_f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now_us () in
  let pid =
    match Unix.fork () with
    | 0 -> (
      try
        die_with_parent ();
        Unix.dup2 devnull Unix.stdin;
        Unix.dup2 logfd Unix.stdout;
        Unix.dup2 logfd Unix.stderr;
        Unix.execv fq (Array.of_list args)
      with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close logfd;
  Unix.close devnull;
  let srv = { pid; sock; live = true } in
  live_servers := srv :: !live_servers;
  let rec wait_conn () =
    match connect sock with
    | Some c -> c
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        srv.live <- false;
        fail "fq serve exited during boot (see %s)" log_f);
      if now_us () -. t0 > 60e6 then fail "fq serve did not come up within 60 s";
      Unix.sleepf 0.0002;
      wait_conn ()
  in
  let c = wait_conn () in
  send c "{\"op\":\"ping\",\"id\":\"boot\"}";
  let reply = recv c in
  let t1 = now_us () in
  if reply_id reply <> Some "boot" then fail "bad boot ping reply: %s" reply;
  (srv, c, (t1 -. t0) /. 1e6)

let shutdown srv c =
  (try
     send c "{\"op\":\"shutdown\",\"id\":\"bye\"}";
     ignore (recv c)
   with _ -> ());
  close_conn c;
  let deadline = now_us () +. 20e6 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ ->
      if now_us () > deadline then begin
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      end
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
    | _ -> ()
  in
  wait ();
  srv.live <- false

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* The server's `metrics` op, parsed with Aggregate.parse_exposition. *)
let scrape c =
  send c "{\"op\":\"metrics\",\"id\":\"scrape\"}";
  let line = recv c in
  match Json.parse line with
  | Ok j -> (
    match Option.bind (Json.member "exposition" j) Json.to_str_opt with
    | Some text -> Aggregate.parse_exposition text
    | None -> fail "metrics reply without exposition")
  | Error e -> fail "metrics reply: %s" e

let metric ?(labels = []) samples name =
  List.fold_left
    (fun acc (m, ls, v) ->
      if m = name && List.for_all (fun l -> List.mem l ls) labels then acc +. v else acc)
    0. samples

let delta ?labels before after name = metric ?labels after name -. metric ?labels before name

(* -------------------------------- load -------------------------------- *)

(* One request observed by the client.  Times are µs on the monotonic
   clock; [due] equals [sent] in a closed loop. *)
type obs = {
  idx : int;  (** stream index *)
  due : float;
  sent : float;
  recv : float;
  ok : bool;  (** the expected complete answer *)
  wrong : bool;  (** a complete answer other than the expected one *)
  rejected : bool;
  bytes : int;
  is_ping : bool;
}

type checker = {
  inp : Gen.inputs;
  expects : expect array;
  deferred : (int, string) Hashtbl.t;  (** pool index -> its first reply *)
  decode_inline : bool;  (** traced run: time a full decode of every reply *)
  mutable decode_us : float list;
}

let has_status st line = find_from line 0 ("\"status\":\"" ^ st ^ "\"") >= 0

let check ck idx line =
  let k = ck.inp.stream.(idx mod Array.length ck.inp.stream) in
  let e = ck.expects.(k) in
  let ok = fragment_ok e line in
  if ck.decode_inline then begin
    let t0 = now_us () in
    let dok = decode_ok e line in
    ck.decode_us <- (now_us () -. t0) :: ck.decode_us;
    ok && dok
  end
  else begin
    if not (Hashtbl.mem ck.deferred k) then Hashtbl.add ck.deferred k line;
    ok
  end

let ping_line tag = Printf.sprintf "{\"op\":\"ping\",\"id\":\"%s\"}" tag

(* Closed loop on the calling thread.  Every [ping_every]-th request is
   an inline ping (traced run only). *)
let closed_loop ck c ~next ~until ~ping_every =
  let n = Array.length ck.inp.lines in
  let acc = ref [] in
  let count = ref 0 in
  (try
     while now_us () < until do
       incr count;
       if ping_every > 0 && !count mod ping_every = 0 then begin
         let t0 = now_us () in
         send c (ping_line "ping");
         let line = recv c in
         let t1 = now_us () in
         acc :=
           { idx = -1; due = t0; sent = t0; recv = t1; ok = reply_id line = Some "ping";
             wrong = false; rejected = false; bytes = String.length line; is_ping = true }
           :: !acc
       end
       else begin
         let i = !next in
         incr next;
         let t0 = now_us () in
         send c ck.inp.lines.(i mod n);
         let line = recv c in
         let t1 = now_us () in
         let ok = reply_id line = Some (string_of_int (i mod n)) && check ck i line in
         acc :=
           { idx = i; due = t0; sent = t0; recv = t1; ok;
             wrong = (not ok) && has_status "complete" line;
             rejected = has_status "rejected" line; bytes = String.length line; is_ping = false }
           :: !acc
       end
     done
   with Sys_error _ | End_of_file | Unix.Unix_error _ ->
     acc :=
       { idx = -2; due = now_us (); sent = nan; recv = nan; ok = false; wrong = false;
         rejected = false; bytes = 0; is_ping = false }
       :: !acc);
  Array.of_list (List.rev !acc)

(* Open loop over one connection: a sender thread sends request [j] of
   the phase at its due time [t0 + j / rate] (or as soon after as it can:
   lateness is recorded), while this thread reads replies.  Latency runs
   from the due time. *)
let open_phase ck c ~first ~count ~rate =
  let t0 = now_us () +. 2000. in
  let due = Pstats.due_times ~t0 ~rate:(rate /. 1e6) count in
  let sent = Array.make count nan in
  let recvd = Array.make count nan in
  let ok = Array.make count false in
  let rej = Array.make count false in
  let wrong = Array.make count false in
  let bytes = Array.make count 0 in
  let n = Array.length ck.inp.lines in
  let sender () =
    try
      for j = 0 to count - 1 do
        let wait = due.(j) -. now_us () in
        if wait > 50. then Unix.sleepf (wait /. 1e6);
        sent.(j) <- now_us ();
        send c ck.inp.lines.((first + j) mod n)
      done
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  let th = Thread.create sender () in
  let got = ref 0 in
  (try
     while !got < count do
       let line = recv c in
       let t = now_us () in
       match Option.bind (reply_id line) int_of_string_opt with
       | Some i when i - first >= 0 && i - first < count && Float.is_nan recvd.(i - first) ->
         let j = i - first in
         recvd.(j) <- t;
         bytes.(j) <- String.length line;
         rej.(j) <- has_status "rejected" line;
         ok.(j) <- check ck i line;
         wrong.(j) <- (not ok.(j)) && has_status "complete" line;
         incr got
       | _ -> fail "unexpected reply: %s" (String.sub line 0 (min 80 (String.length line)))
     done
   with Sys_error _ | End_of_file -> ());
  Thread.join th;
  Array.init count (fun j ->
      { idx = first + j; due = due.(j); sent = sent.(j); recv = recvd.(j);
        ok = ok.(j) && not (Float.is_nan recvd.(j)); wrong = wrong.(j); rejected = rej.(j);
        bytes = bytes.(j); is_ping = false })

(* ------------------------------ summaries ----------------------------- *)

let evals obs = Array.of_list (List.filter (fun o -> not o.is_ping) (Array.to_list obs))
let pings obs = Array.of_list (List.filter (fun o -> o.is_ping) (Array.to_list obs))
let sample o = { Pstats.due = o.due; sent = o.sent; recv = o.recv }
let latencies obs = Array.map (fun o -> Pstats.latency (sample o)) (Array.of_list (List.filter (fun o -> o.ok) (Array.to_list obs)))
let failures obs = Array.fold_left (fun n o -> if o.ok then n else n + 1) 0 obs

(* p50 is the plain median; p99 is the median of per-chunk p99s over
   chunks of 1000 samples (each supports p99 with ten samples beyond). *)
let p50 lat = Pstats.median lat
let p99 lat = Pstats.chunked_quantile ~chunk:1000 lat 0.99

(* ---------------------------- traced replay ---------------------------- *)

(* The per-layer breakdown.  The stream prefix is replayed in-process
   through the same layer calls the server makes for an eval, each
   wrapped in a span: protocol parse, formula parse, the safe-range
   check, then either RANF compilation (with the optimizer) and the
   columnar engine, or the enumerate tier with every decide routed
   through a spanned Decide_cache whose misses reach a spanned decision
   procedure and whose fills append to a spanned Journal; finally the
   Outcome encoding.  Separately, a whole Query.eval_resilient call with
   a fuel budget, the shared stats and the cached domain gives
   query.eval_us; what the stage spans do not cover of it is
   query.unattributed_us. *)
type replay_env = {
  state : State.t;
  stats : Stats.t;
  snapshot_path : string option;
  cfg : config;
  expects : expect array;
}

let fresh_cache env =
  let c = Decide_cache.create () in
  Option.iter (fun p -> ignore (Decide_cache.load c p)) env.snapshot_path;
  c

let spanned_domain sp cache dom =
  let (module D : Domain_.S) = dom in
  let raw =
    Domain_.with_decide dom (fun g ->
        Spans.with_span sp ~stage:"decide" "presburger.decide" (fun () -> D.decide g))
  in
  Domain_.with_decide dom (fun g ->
      Spans.with_span sp ~stage:"decide" "decide_cache.decide" (fun () ->
          Decide_cache.decide cache raw g))

type replay_out = {
  done_ : int;
  mismatches : int;  (** staged answers that differ from the oracle *)
  ticks : float;
  plan_nodes : float list;
  rows_out : float list;
}

let staged sp env ~cache line =
  let req =
    Spans.with_span sp ~stage:"parse" "protocol.parse_request" (fun () -> Protocol.parse_request line)
  in
  match req with
  | Ok (Protocol.Eval { id; domain; formula; _ }) -> (
    let dom = domain_of (Option.value domain ~default:env.cfg.default_domain) in
    let f =
      Spans.with_span sp ~stage:"parse" "parser.formula" (fun () -> Fq_logic.Parser.formula formula)
    in
    match f with
    | Error e -> fail "replay parse: %s" e
    | Ok f ->
      let budget = Budget.of_fuel Gen.request_fuel in
      let schema = Fq_db.Schema.relations (State.schema env.state) in
      let safe =
        Spans.with_span sp ~stage:"safety" "safe_range.check" (fun () ->
            Fq_eval.Safe_range.check ~schema f)
      in
      let plan_nodes = ref None in
      let verdict =
        match safe with
        | Fq_eval.Safe_range.Safe_range -> (
          let compiled =
            Spans.with_span sp ~stage:"compile" "ranf.compile" (fun () ->
                Fq_eval.Ranf.compile ~stats:env.stats ~domain:dom ~state:env.state f)
          in
          match compiled with
          | Error e -> fail "replay compile: %s" e
          | Ok { Fq_eval.Algebra_translate.plan; _ } ->
            plan_nodes := Some (float_of_int (Fq_db.Relalg.size plan));
            let (module D : Domain_.S) = dom in
            let domain_pred p vs =
              match D.eval_pred p vs with Some b -> b | None -> invalid_arg ("predicate " ^ p)
            in
            let rel =
              Spans.with_span sp ~stage:"engine" "relalg.eval" (fun () ->
                  Fq_db.Relalg.eval ~state:env.state ~budget ~domain_pred plan)
            in
            Outcome.Complete { answer = rel; tier = "ranf-algebra" })
        | Fq_eval.Safe_range.Not_safe_range _ -> (
          let sdom = spanned_domain sp cache dom in
          match
            Spans.with_span sp ~stage:"decide" "enumerate.run" (fun () ->
                Fq_eval.Enumerate.run_budgeted ~budget ~domain:sdom ~state:env.state f)
          with
          | Ok (Fq_eval.Enumerate.Complete answer) -> Outcome.Complete { answer; tier = "enumerate" }
          | _ -> fail "replay: enumerate did not complete")
      in
      let rep = { Outcome.verdict; usage = Budget.usage budget; attempts = [] } in
      let rows =
        match (verdict, !plan_nodes) with
        | Outcome.Complete { answer; _ }, Some _ -> Some (Relation.cardinal answer)
        | _ -> None
      in
      ignore
        (Spans.with_span sp ~stage:"encode" "outcome.encode" (fun () ->
             Json.to_string (Protocol.outcome_response ~id rep)));
      (!plan_nodes, rows, verdict, dom, f))
  | _ -> fail "replay: not an eval request"

(* Fills append to a journal, as in the server; with [sp] the append is
   a span. *)
let attach_journal ?sp cache path =
  if Sys.file_exists path then Sys.remove path;
  match Journal.open_append path with
  | Error e -> fail "journal: %s" e
  | Ok j ->
    let append key v = ignore (Journal.append j (Decide_cache.entry_to_line key v)) in
    Decide_cache.set_on_insert cache
      (Some
         (match sp with
         | Some sp ->
           fun key v -> Spans.with_span sp ~stage:"decide" "journal.append" (fun () -> append key v)
         | None -> append));
    j

(* One pass over the first [limit] stream requests (or until [until]). *)
let replay_pass sp env (inp : Gen.inputs) ~limit ~until ~with_query =
  let cache = fresh_cache env in
  let qcache = fresh_cache env in
  let j = attach_journal ~sp cache "replay.journal" in
  let qj = attach_journal qcache "replay.query.journal" in
  let ticks = ref 0. and nodes = ref [] and rows = ref [] in
  let n = ref 0 and mismatches = ref 0 in
  let t0 = now_us () in
  while !n < limit && now_us () < until do
    let i = !n in
    Spans.set_request sp i;
    let k = i mod Array.length inp.lines in
    let pn, r, verdict, dom, f = staged sp env ~cache inp.lines.(k) in
    (match verdict with
    | Outcome.Complete { answer; _ } when Relation.equal answer env.expects.(inp.stream.(k)).rel -> ()
    | _ -> incr mismatches);
    Option.iter (fun p -> nodes := p :: !nodes) pn;
    Option.iter (fun r -> rows := float_of_int r :: !rows) r;
    if with_query then begin
      let cached = Decide_cache.domain qcache dom in
      let rep =
        Spans.with_span sp ~stage:"query" "query.eval_resilient" (fun () ->
            Query.eval_resilient ~budget:(Budget.of_fuel Gen.request_fuel) ~stats:env.stats
              ~domain:cached ~state:env.state f)
      in
      ticks := !ticks +. float_of_int rep.Outcome.usage.Budget.ticks
    end;
    incr n
  done;
  let elapsed = now_us () -. t0 in
  Journal.close j;
  Journal.close qj;
  ({ done_ = !n; mismatches = !mismatches; ticks = !ticks; plan_nodes = !nodes; rows_out = !rows }, elapsed)

(* ------------------------------- output ------------------------------- *)

(* The result line.  A metric that could not be measured (no successful
   sample) is printed as 0 and marks the run incorrect. *)
let emit ~correct ~attempted ~failed metrics =
  let unmeasured = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> log "UNMEASURED: %s" name) unmeasured;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name
             (if Float.is_finite v then v else 0.)
             unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct && unmeasured = []) attempted failed body

(* --------------------------------- run --------------------------------- *)

(* Share of --seconds each part of a run takes.  Untraced: the whole
   window is load (serve_point: 70% closed loop, the rest over the
   ladder).  Traced: the same load in 40% of the window, then the spanned
   replay, then four short replays that price the span recorder. *)
let traced_serve_share = 0.4
let reference_share = 0.7
let traced_replay_share = 0.3

(* Seconds of closed-loop reference load and per ladder step. *)
let phases cfg ~seconds ~trace =
  let run_s = if trace then traced_serve_share *. seconds else seconds in
  match cfg.ladder with
  | [] -> (run_s, 0.)
  | l -> (reference_share *. run_s, (1. -. reference_share) *. run_s /. float_of_int (List.length l))

(* The closed loop wraps around the stream; a ladder step reuses its
   first requests (the connection is idle between phases, so ids stay
   unique among those in flight). *)
let stream_length cfg ~seconds ~trace =
  let _, step_s = phases cfg ~seconds ~trace in
  List.fold_left (fun n r -> max n (int_of_float (r *. step_s) + 1)) 20_000 cfg.ladder

let timed_phase label f =
  let t0 = now_us () in
  let v = f () in
  log "  %s: %.2fs" label ((now_us () -. t0) /. 1e6);
  v

(* Boot [setups] servers one after another, each on the same generated
   inputs; set-up time is their median.  All but the last are killed
   (the inputs are rewritten before each boot); the last one stays up. *)
let boot_servers ~fq ~w ~cfg ~inp =
  let rec go k acc =
    let srv, c, s = spawn ~fq ~w ~cfg ~inp in
    if k > 1 then begin
      close_conn c;
      kill srv;
      go (k - 1) (s :: acc)
    end
    else (srv, c, Pstats.median (Array.of_list (s :: acc)))
  in
  go setups []

type served = {
  reference : obs array;  (** the closed-loop reference load *)
  steps : (float * obs array) list;  (** serve_point's ladder *)
  warm : obs array;
  t0 : float;  (** start of the reference load, µs *)
  before : (string * (string * string) list * float) list;  (** scrapes *)
  after : (string * (string * string) list * float) list;
  rss_mb : float;
  journal_bytes : int;
}

(* Warm up, scrape, run the load, scrape again, read the server's peak
   RSS and journal size.  The traced run interleaves an inline ping
   every tenth request. *)
let serve_load ck ~cfg ~srv ~c ~seconds ~trace ~journal_path =
  let next = ref 0 in
  let warm = closed_loop ck c ~next ~until:(now_us () +. (warmup_s *. 1e6)) ~ping_every:0 in
  let before = scrape c in
  let ref_s, step_s = phases cfg ~seconds ~trace in
  let t0 = now_us () in
  let reference =
    closed_loop ck c ~next ~until:(t0 +. (ref_s *. 1e6)) ~ping_every:(if trace then 10 else 0)
  in
  let steps =
    List.map
      (fun rate ->
        let count = int_of_float (step_s *. rate) in
        (rate, open_phase ck c ~first:0 ~count ~rate))
      cfg.ladder
  in
  let after = scrape c in
  let rss_mb = peak_rss_mb srv.pid in
  let journal_bytes =
    if Sys.file_exists journal_path then (Unix.stat journal_path).Unix.st_size else 0
  in
  { reference; steps; warm; t0; before; after; rss_mb; journal_bytes }

(* A step meets the SLO when its p99, with every failed or refused
   request counted as missing the limit, is within the limit and its
   backlog does not keep growing. *)
let meets_slo cfg obs =
  let ev = evals obs in
  let l = Array.map (fun o -> if o.ok then Pstats.latency (sample o) else infinity) ev in
  Array.length l > 0
  && p99 l <= cfg.slo_p99_us
  && not (Pstats.growing_backlog (latencies ev) ~slack:1000.)

let achieved_rate obs =
  let ev = evals obs in
  let ok = Array.of_list (List.filter (fun o -> o.ok) (Array.to_list ev)) in
  if Array.length ok = 0 then 0.
  else
    let first = Array.fold_left (fun a o -> Float.min a o.due) infinity ev in
    let last = Array.fold_left (fun a o -> Float.max a o.recv) 0. ok in
    float_of_int (Array.length ok) /. ((last -. first) /. 1e6)

(* serve_point: the highest ladder rate that meets the SLO, as achieved.
   Closed loops have no offered rate: their throughput counts when the
   p99 limit holds. *)
let max_qps_under_slo cfg sv ~throughput =
  match sv.steps with
  | [] -> if meets_slo cfg sv.reference then throughput else 0.
  | steps ->
    List.fold_left
      (fun best (rate, obs) ->
        let l = latencies (evals obs) in
        let ok = meets_slo cfg obs in
        log "  ladder %.0f/s: achieved %.1f/s, p50 %.1fus, p99 %.1fus, failures %d -> %s" rate
          (achieved_rate obs) (p50 l) (p99 l) (failures (evals obs))
          (if ok then "meets SLO" else "misses SLO");
        if ok then Float.max best (achieved_rate obs) else best)
      0. steps

(* Per-layer metrics of the traced run.  Server, protocol and client
   layers come from the served phase and the scrapes; set-up layers are
   timed in-process (median of [setups]); the rest from the spanned
   replay. *)
let layer_metrics ~w ~cfg ~(inp : Gen.inputs) ~expects ~state ~state_f ~journal_path ~seconds
    ck sv =
  let name = Gen.workload_name w in
  let ref_evals = evals sv.reference in
  let ok_evals = Array.of_list (List.filter (fun o -> o.ok) (Array.to_list ref_evals)) in
  let d ?labels name = delta ?labels sv.before sv.after name in
  let rt = Pstats.mean (Array.map (fun o -> o.recv -. o.sent) ok_evals) in
  let ping_rtt = Pstats.median (Array.map (fun o -> o.recv -. o.sent) (pings sv.reference)) in
  let lat_count = d "fq_request_latency_ms_count" in
  let exec_us = if lat_count > 0. then d "fq_request_latency_ms_sum" /. lat_count *. 1000. else 0. in
  let server_overhead = rt -. exec_us in
  let hits = d "fq_decide_cache_hits_total" and misses = d "fq_decide_cache_misses_total" in
  let lag = metric sv.after "fq_journal_lag_records" in
  let header = String.length "fq-decide-journal 1\n" in
  let bytes_per_fill =
    if lag > 0. then float_of_int (sv.journal_bytes - header) /. lag else 0.
  in
  let gen_lag =
    let sent = List.filter (fun o -> not (Float.is_nan o.sent)) (List.concat_map (fun (_, obs) -> Array.to_list obs) sv.steps) in
    if sent = [] then 0.
    else Pstats.quantile (Array.of_list (List.map (fun o -> Pstats.lateness (sample o)) sent)) 0.99
  in
  (* set-up layers *)
  let med f = Pstats.median (Array.init setups (fun _ -> f ())) in
  let time f =
    let t0 = now_us () in
    ignore (f ());
    now_us () -. t0
  in
  let load_state () =
    match Codec.load_state state_f with Ok st -> st | Error e -> fail "state: %s" e
  in
  let load_state_us = med (fun () -> time load_state) in
  let stats_us =
    med (fun () ->
        let st = load_state () in
        time (fun () -> Stats.of_state st))
  in
  let snapshot_path =
    Option.map
      (fun s ->
        let p = name ^ ".snapshot.gen" in
        Gen.write_file p s;
        p)
      inp.snapshot
  in
  let cache_load_us =
    match snapshot_path with
    | None -> 0.
    | Some p -> med (fun () -> time (fun () -> Decide_cache.load (Decide_cache.create ()) p))
  in
  let recover_us =
    if sv.journal_bytes > 0 then
      med (fun () -> time (fun () -> Journal.recover ~truncate:false journal_path ~f:ignore))
    else 0.
  in
  (* the spanned replay *)
  let env = { state; stats = Stats.of_state state; snapshot_path; cfg; expects } in
  let sp = Spans.create () in
  let until = now_us () +. (traced_replay_share *. seconds *. 1e6) in
  let out, _ = replay_pass sp env inp ~limit:max_int ~until ~with_query:true in
  let m = out.done_ in
  Spans.write_jsonl ~max_req:2000 sp (name ^ ".spans.jsonl");
  let tot = Spans.totals sp in
  (* price of the span recorder: a quarter of that prefix without and
     with spans, in off-on-on-off order so drift cancels, each from a
     collected heap *)
  let timed on =
    let s = Spans.create () in
    s.Spans.on <- on;
    Gc.full_major ();
    snd (replay_pass s env inp ~limit:(max 1 (m / 4)) ~until:infinity ~with_query:false)
  in
  let off1 = timed false in
  let on1 = timed true in
  let on2 = timed true in
  let off2 = timed false in
  let overhead_pct = 100. *. (on1 +. on2 -. (off1 +. off2)) /. (off1 +. off2) in
  let mean = Spans.mean_us tot in
  let per_req f nm = f (Spans.find tot nm) /. float_of_int (max 1 m) in
  let total_per_req = per_req (fun x -> x.Spans.total_us) in
  let self_per_req = per_req (fun x -> x.Spans.self_us) in
  let staged_us =
    List.fold_left
      (fun a nm -> a +. total_per_req nm)
      0.
      [ "safe_range.check"; "ranf.compile"; "relalg.eval"; "enumerate.run" ]
  in
  (* where a request's time goes: self time per request, largest first *)
  let layers =
    ("server.overhead", server_overhead)
    :: List.map
         (fun nm -> (nm, self_per_req nm))
         [ "protocol.parse_request"; "parser.formula"; "safe_range.check"; "ranf.compile";
           "relalg.eval"; "enumerate.run"; "decide_cache.decide"; "presburger.decide";
           "journal.append"; "outcome.encode" ]
  in
  let total = List.fold_left (fun a (_, v) -> a +. Float.max 0. v) 0. layers in
  log "%s self time per request (%d requests replayed):" name m;
  List.iter
    (fun (l, v) -> log "  %-24s %10.2f us %5.1f%%" l v (100. *. v /. total))
    (List.sort (fun (_, a) (_, b) -> compare b a) layers);
  (* layers predicted idle must read ~0 *)
  let idle_ok =
    match w with
    | Gen.Point | Gen.Join ->
      hits +. misses = 0. && (Spans.find tot "decide_cache.decide").Spans.calls = 0
    | Gen.Decide -> true
  in
  if not idle_ok then log "IDLE CHECK FAILED: the decide cache ran on %s" name;
  let mean_list l = Pstats.mean (Array.of_list l) in
  if out.mismatches > 0 then log "REPLAY MISMATCHES: %d" out.mismatches;
  ( idle_ok && out.mismatches = 0,
    [ ("server.ping_rtt_us", ping_rtt, "us");
      ("server.exec_us", exec_us, "us");
      ("server.overhead_us", server_overhead, "us");
      ("server.rejects", d "fq_engine_events_total" ~labels:[ ("name", "serve.rejected") ], "count");
      ("protocol.parse_request_us", mean "protocol.parse_request", "us");
      ("client.decode_us", Pstats.mean (Array.of_list ck.decode_us), "us");
      ("client.reply_bytes", Pstats.mean (Array.map (fun o -> float_of_int o.bytes) ok_evals), "bytes");
      ( "client.failed_share",
        float_of_int (failures ref_evals) /. float_of_int (max 1 (Array.length ref_evals)),
        "ratio" );
      ("parser.formula_us", mean "parser.formula", "us");
      ("safe_range.check_us", mean "safe_range.check", "us");
      ("ranf.compile_us", mean "ranf.compile", "us");
      ("ranf.plan_nodes", mean_list out.plan_nodes, "count");
      ("relalg.eval_us", mean "relalg.eval", "us");
      ("relalg.rows_out", mean_list out.rows_out, "count");
      ("outcome.encode_us", mean "outcome.encode", "us");
      ("enumerate.run_us", mean "enumerate.run", "us");
      ("decide_cache.decide_us", mean "decide_cache.decide", "us");
      ("decide_cache.hit_ratio", (if hits +. misses > 0. then hits /. (hits +. misses) else 0.), "ratio");
      ("decide_cache.evictions", d "fq_decide_cache_evictions_total", "count");
      ("presburger.decide_us", mean "presburger.decide", "us");
      ("journal.append_us", mean "journal.append", "us");
      ("journal.bytes_per_fill", bytes_per_fill, "bytes");
      ("codec.load_state_us", load_state_us, "us");
      ("optimizer.stats_us", stats_us, "us");
      ("decide_cache.load_us", cache_load_us, "us");
      ("journal.recover_us", recover_us, "us");
      ("query.eval_us", mean "query.eval_resilient", "us");
      ("query.ticks", out.ticks /. float_of_int (max 1 m), "count");
      ("query.unattributed_us", total_per_req "query.eval_resilient" -. staged_us, "us");
      ("gen.lag_p99_us", gen_lag, "us");
      ("trace.overhead_pct", overhead_pct, "%") ] )

let run ~w ~seed ~seconds ~trace ~fq =
  let cfg = config w in
  log "pinned to cpu %d" (pin_last_cpu ());
  let name = Gen.workload_name w in
  let state_f, snap_f, _, _ = files_of w in
  let journal_path = snap_f ^ ".journal" in
  let n = stream_length cfg ~seconds ~trace in
  let inp, state, expects =
    timed_phase "generate and compute oracle" (fun () ->
        let inp =
          match Gen.generate w ~seed ~n ~tmp:(name ^ ".gen.tmp") with
          | Ok i -> i
          | Error e -> fail "generation: %s" e
        in
        Gen.write_file state_f inp.state;
        let state =
          match Codec.load_state state_f with Ok s -> s | Error e -> fail "state: %s" e
        in
        let expects = oracle inp ~state ~cfg in
        log "%s seed=%d inputs=%s pool=%d stream=%d" name seed (Gen.digest inp)
          (Array.length inp.pool) n;
        (inp, state, expects))
  in
  let srv, c0, setup_s = timed_phase "boot" (fun () -> boot_servers ~fq ~w ~cfg ~inp) in
  let ck =
    { inp; expects; deferred = Hashtbl.create 1024; decode_inline = trace; decode_us = [] }
  in
  let sv =
    timed_phase "serve" (fun () ->
        serve_load ck ~cfg ~srv ~c:c0 ~seconds ~trace ~journal_path)
  in
  shutdown srv c0;
  (* cross-check the harness against the program's own counters *)
  let measured = Array.concat (sv.reference :: List.map snd sv.steps) in
  let eval_replies =
    Array.fold_left
      (fun n o -> if (not o.is_ping) && (not (Float.is_nan o.recv)) && not o.rejected then n + 1 else n)
      0 measured
  in
  let server_evals =
    int_of_float (delta sv.before sv.after "fq_requests_total" ~labels:[ ("op", "eval") ])
  in
  let counts_agree = server_evals = eval_replies in
  if not counts_agree then
    log "CROSS-CHECK FAILED: server eval count delta %d, client received %d" server_evals
      eval_replies;
  (* the deferred full decode of the first reply per pool entry *)
  let decode_bad =
    Hashtbl.fold (fun k line bad -> if decode_ok expects.(k) line then bad else bad + 1) ck.deferred 0
  in
  if decode_bad > 0 then log "FULL DECODE MISMATCH on %d replies" decode_bad;
  (* a wrong answer fails the run; other failures (transport errors,
     rejects, malformed or incomplete replies) are counted *)
  let wrong =
    Array.fold_left (fun n o -> if o.wrong then n + 1 else n) 0 (Array.append sv.warm measured)
  in
  if wrong > 0 then log "WRONG ANSWERS: %d" wrong;
  let ref_evals = evals sv.reference in
  let attempted = Array.length ref_evals and failed = failures ref_evals in
  let lat = latencies ref_evals in
  let throughput =
    Pstats.rate_median ~window:1. ~t0:sv.t0
      (Array.of_list (List.filter_map (fun o -> if o.ok then Some o.recv else None) (Array.to_list ref_evals)))
  in
  log "%s: %d samples at reference load (highest supported percentile: %s); p50 %.1fus, p99 %.1fus, %.1f/s, failed %d/%d, setup %.4fs (median of %d boots)"
    name (Array.length lat)
    (match Pstats.highest_supported (Array.length lat) with
    | Some q -> Printf.sprintf "p%g" (q *. 100.)
    | None -> "none")
    (p50 lat) (p99 lat) throughput failed attempted setup_s setups;
  let correct = wrong = 0 && counts_agree && decode_bad = 0 in
  if not trace then
    emit ~correct ~attempted ~failed
      [ ("setup_s", setup_s, "s");
        ("latency_p50_us", p50 lat, "us");
        ("latency_p99_us", p99 lat, "us");
        ("throughput_qps", throughput, "1/s");
        ("max_qps_under_slo", max_qps_under_slo cfg sv ~throughput, "1/s");
        ("peak_rss_mb", sv.rss_mb, "MB") ]
  else
    let layers_ok, metrics =
      timed_phase "trace replay" (fun () ->
          layer_metrics ~w ~cfg ~inp ~expects ~state ~state_f ~journal_path ~seconds ck sv)
    in
    emit ~correct:(correct && layers_ok) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let fq = ref "" and workdir = ref "." in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME serve_point | serve_join | serve_decide");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--fq", Arg.Set_string fq, "PATH the fq executable");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory for inputs and logs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --fq FQ";
  let code =
    match List.assoc_opt !workload Gen.workloads with
    | None ->
      log "unknown workload %S" !workload;
      2
    | Some _ when !fq = "" || not (Sys.file_exists !fq) ->
      log "missing --fq executable";
      2
    | Some w -> (
      let fq = if Filename.is_relative !fq then Filename.concat (Sys.getcwd ()) !fq else !fq in
      (try Unix.mkdir !workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Sys.chdir !workdir;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      set_timerslack_ns 1;
      match run ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~fq with
      | () -> 0
      | exception Bench_error e ->
        log "benchmark error: %s" e;
        1)
  in
  kill_all ();
  exit code
