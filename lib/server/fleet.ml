(* The fq fleet supervisor: process-level crash isolation for serving.

   One parent process forks [workers] independent fq serve processes,
   each bound to its own derived address (ADDR.0, ADDR.1, ... for unix
   sockets; consecutive ports above the base for tcp) with its own
   append-only journal.  The parent owns the shared snapshot: workers
   open it read-only at boot (warm start) and never write it, so two
   processes never race on the same temp+rename; the parent folds each
   worker's journal into its own decide cache — read-only while the
   worker lives, destructively once it is dead — and publishes the
   snapshot, which is what a respawned worker warm-boots from.

   Supervision is the process-level incarnation of Fq_core.Supervisor's
   policy: liveness by waitpid(WNOHANG) every tick plus periodic health
   probes over the wire, crash restart with exponential backoff, and a
   flap-detection circuit breaker — a worker that crashes [restart_limit]
   times inside [flap_window_ms] is parked, and discovery stops steering
   traffic at it.  SIGHUP / a reload request roll the fleet one worker
   at a time (the state file is parsed once, up front, so a broken file
   rolls nobody); SIGTERM / a shutdown request drain every worker
   gracefully, fold every journal, and write the snapshot before exit.

   The parent is deliberately single-threaded (select + synchronous
   control connections): fork from a process with live threads inherits
   their held locks, so the control loop never spawns one. *)

module Json = Fq_core.Json
module Journal = Fq_core.Journal
module Aggregate = Fq_core.Aggregate
module Decide_cache = Fq_domain.Decide_cache
module Optimizer = Fq_db.Optimizer

type config = {
  workers : int;
  restart_limit : int;
  flap_window_ms : int;
  base_backoff_ms : int;
  backoff_factor : float;
  max_backoff_ms : int;
  probe_interval_ms : int;
  probe_timeout_ms : int;
  probe_failures : int;
  drain_grace_ms : int;
  serve : Server.config;
}

let default_config ~state addr =
  { workers = 2;
    restart_limit = 5;
    flap_window_ms = 30_000;
    base_backoff_ms = 100;
    backoff_factor = 2.0;
    max_backoff_ms = 5_000;
    probe_interval_ms = 1_000;
    probe_timeout_ms = 1_000;
    probe_failures = 3;
    drain_grace_ms = 10_000;
    serve = Server.default_config ~state addr }

let worker_addr base i =
  match base with
  | Server.Unix_path p -> Server.Unix_path (Printf.sprintf "%s.%d" p i)
  | Server.Tcp port -> Server.Tcp (port + 1 + i)

(* ----------------------------- runtime ------------------------------ *)

(* Backoff doubles as "waiting out a spawn failure": a worker in
   W_backoff has no process and a respawn timestamp; W_parked is the
   tripped flap breaker — no process, no timestamp, human required. *)
type wstatus = W_up | W_backoff | W_parked

type wrk = {
  w_idx : int;
  w_name : string;
  w_addr : Server.addr;
  w_journal : string option;
  mutable w_pid : int option;
  mutable w_status : wstatus;
  mutable w_restarts : int;
  mutable w_crashes : float list;  (* recent crash timestamps (ms), newest first *)
  mutable w_next_spawn : float;  (* ms timestamp a W_backoff respawn fires at *)
  mutable w_backoff_ms : float;
  mutable w_probe_fails : int;  (* consecutive failed health probes *)
  mutable w_journal_records : int;  (* the worker's appends, as last probed *)
  mutable w_folded_mark : int;  (* w_journal_records at the last compaction *)
}

type t = {
  cfg : config;
  cache : Decide_cache.t;  (* the parent's fold target; source of the snapshot *)
  ws : wrk array;
  mutable state : Fq_db.State.t;  (* template a respawned worker boots from *)
  mutable state_path : string option;
  mutable stopping : bool;
  mutable listen_fd : Unix.file_descr option;  (* children must close it *)
  mutable reloads : int;
  mutable compactions : int;
  mutable folded : int;  (* journal records folded into the parent cache *)
  mutable last_save : float;
  mutable last_probe : float;
  term : bool Atomic.t;
  hup : bool Atomic.t;
  log : string -> unit;
}

let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------- snapshot + journals ---------------------- *)

(* Load every worker journal into the parent cache.  [destructive] only
   once the workers are dead: the live fold must not truncate a torn tail
   (the worker owns the append position and may be mid-record), so it
   reads the file as-is — replay is idempotent, the next fold or the
   crash-time destructive fold picks up whatever this one missed. *)
let fold_journals t ws ~destructive =
  Array.fold_left
    (fun acc w ->
      match w.w_journal with
      | None -> acc
      | Some jpath -> (
        match Decide_cache.load ~truncate:destructive t.cache jpath with
        | Ok { Journal.applied; _ } ->
          if destructive then ( try Sys.remove jpath with Sys_error _ -> ());
          t.folded <- t.folded + applied;
          acc + applied
        | Error e ->
          t.log (Printf.sprintf "fq fleet: journal fold failed (%s): %s" jpath e);
          acc))
    0 ws

let save_snapshot t ~why =
  match t.cfg.serve.snapshot with
  | None -> ()
  | Some path -> (
    match Decide_cache.save t.cache path with
    | Ok n ->
      t.last_save <- Unix.gettimeofday ();
      t.log (Printf.sprintf "fq fleet: snapshot written (%d entries, %s) to %s" n why path)
    | Error e -> t.log (Printf.sprintf "fq fleet: snapshot failed: %s" e))

(* The parent-side compaction pass: fold every live worker's journal
   (read-only) and republish the snapshot they warm-boot from. *)
let compact t ~why =
  let folded = fold_journals t t.ws ~destructive:false in
  Array.iter (fun w -> w.w_folded_mark <- w.w_journal_records) t.ws;
  save_snapshot t ~why;
  t.compactions <- t.compactions + 1;
  folded

(* ------------------------------ spawning ---------------------------- *)

let worker_config t w =
  { t.cfg.serve with
    Server.addr = w.w_addr;
    worker_id = Some w.w_name;
    snapshot_read_only = true;
    journal = w.w_journal;
    state = t.state;
    stats = Optimizer.Stats.of_state t.state;
    state_file = t.state_path }

let spawn_worker t w =
  match Fq_core.Fault.hit "fleet.spawn" with
  | exception e ->
    Error (Printf.sprintf "fleet: injected spawn fault: %s" (Printexc.to_string e))
  | () -> (
    let cfg = worker_config t w in
    (* the child inherits the parent's stdio buffers: flush so a worker
       never re-emits the parent's pending output *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "fleet: fork: %s" (Unix.error_message e))
    | 0 ->
      (* the worker: drop the parent's listener, serve, and _exit so the
         child never runs the parent's at_exit machinery *)
      (match t.listen_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      let code =
        match Server.run cfg with
        | Ok code -> code
        | Error e ->
          t.log (Printf.sprintf "fq fleet: %s: boot failed: %s" w.w_name e);
          1
      in
      Unix._exit code
    | pid ->
      w.w_pid <- Some pid;
      w.w_status <- W_up;
      w.w_probe_fails <- 0;
      (* a fresh process starts a fresh journal count *)
      w.w_journal_records <- 0;
      w.w_folded_mark <- 0;
      Ok pid)

let schedule_respawn t w now =
  w.w_status <- W_backoff;
  w.w_next_spawn <- now +. w.w_backoff_ms;
  t.log
    (Printf.sprintf "fq fleet: %s: restarting in %.0fms (restart %d)" w.w_name
       w.w_backoff_ms w.w_restarts);
  w.w_backoff_ms <-
    Float.min (w.w_backoff_ms *. t.cfg.backoff_factor) (float_of_int t.cfg.max_backoff_ms)

(* A dead worker: fold what its journal salvaged into the snapshot (so
   the respawn warm-boots with the crashed process's verdicts), then
   either park it (flap breaker) or schedule the backoff respawn. *)
let handle_death t w now ~how =
  w.w_pid <- None;
  t.log (Printf.sprintf "fq fleet: %s: %s" w.w_name how);
  let folded = fold_journals t [| w |] ~destructive:true in
  if folded > 0 then save_snapshot t ~why:(w.w_name ^ " journal fold");
  if t.stopping then ()
  else begin
    w.w_restarts <- w.w_restarts + 1;
    let window = float_of_int t.cfg.flap_window_ms in
    w.w_crashes <- now :: List.filter (fun ts -> now -. ts <= window) w.w_crashes;
    if List.length w.w_crashes >= t.cfg.restart_limit then begin
      w.w_status <- W_parked;
      t.log
        (Printf.sprintf
           "fq fleet: %s: parked — %d crashes in %.0fs, traffic redistributed" w.w_name
           (List.length w.w_crashes)
           (window /. 1000.))
    end
    else schedule_respawn t w now
  end

(* OCaml signal numbers are its own negative encoding: name the common
   ones so logs read "killed by SIGKILL", not "signal -7" *)
let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" n

let describe_status = function
  | Unix.WEXITED 0 -> "exited cleanly"
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> "killed by " ^ signal_name n
  | Unix.WSTOPPED n -> "stopped by " ^ signal_name n

let reap t now =
  Array.iter
    (fun w ->
      match w.w_pid with
      | None -> ()
      | Some pid -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _, status -> handle_death t w now ~how:(describe_status status)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          handle_death t w now ~how:"already reaped"))
    t.ws

let respawn_due t now =
  Array.iter
    (fun w ->
      if w.w_status = W_backoff && w.w_pid = None && now >= w.w_next_spawn then
        match spawn_worker t w with
        | Ok pid -> t.log (Printf.sprintf "fq fleet: %s: respawned (pid %d)" w.w_name pid)
        | Error e ->
          (* a failed fork rides the same backoff schedule as a crash *)
          t.log (Printf.sprintf "fq fleet: %s: %s" w.w_name e);
          schedule_respawn t w now)
    t.ws

(* ------------------------------- probes ----------------------------- *)

(* Wire-level liveness, beyond "the pid exists": a worker that accepts
   no connection (wedged accept loop, dead event loop) for
   [probe_failures] consecutive probes is killed, which routes it onto
   the ordinary crash-restart path.  A healthy probe also reports the
   worker's journal lag, which is what triggers a parent compaction. *)
let probe_worker t w =
  match Fq_core.Fault.hit "fleet.probe" with
  | exception _ -> Error "injected probe fault"
  | () -> (
    match
      Client.connect ~retries:0 ~timeout_ms:(max 1 t.cfg.probe_timeout_ms) w.w_addr
    with
    | Error e -> Error e
    | Ok c ->
      let r = Client.request c (Protocol.Health { id = "fleet-probe" }) in
      Client.close c;
      (match r with
      | Ok (_, Protocol.R_ok j) ->
        Ok
          (match Option.bind (Json.member "journal_records" j) Json.to_int_opt with
          | Some n -> n
          | None -> 0)
      | Ok _ -> Error "probe: unexpected reply"
      | Error e -> Error e))

let probes t now =
  if now -. t.last_probe >= float_of_int t.cfg.probe_interval_ms then begin
    t.last_probe <- now;
    let lag = ref 0 in
    Array.iter
      (fun w ->
        if w.w_status = W_up && w.w_pid <> None then
          match probe_worker t w with
          | Ok journal_records ->
            w.w_probe_fails <- 0;
            (* a worker never resets its journal (its snapshot is
               read-only), so only the records since the last fold count *)
            w.w_journal_records <- journal_records;
            lag := !lag + journal_records - w.w_folded_mark;
            (* a stretch of health resets the crash history: only
               crashes in quick succession should trip the flap breaker *)
            (match w.w_crashes with
            | ts :: _ when now -. ts > float_of_int t.cfg.flap_window_ms ->
              w.w_crashes <- [];
              w.w_backoff_ms <- float_of_int t.cfg.base_backoff_ms
            | _ -> ())
          | Error e ->
            w.w_probe_fails <- w.w_probe_fails + 1;
            if w.w_probe_fails >= t.cfg.probe_failures then begin
              t.log
                (Printf.sprintf "fq fleet: %s: %d probes failed (%s), killing" w.w_name
                   w.w_probe_fails e);
              w.w_probe_fails <- 0;
              match w.w_pid with
              | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
              | None -> ()
            end)
      t.ws;
    if
      t.cfg.serve.Server.snapshot <> None
      && !lag >= t.cfg.serve.Server.journal_compact_every
    then begin
      let folded = compact t ~why:"compaction" in
      t.log
        (Printf.sprintf "fq fleet: compacted %d journal records into the snapshot" folded)
    end
  end

(* ------------------------------- reload ----------------------------- *)

(* Rolling: the file is parsed once before any worker moves (a broken
   file rolls nobody), then each live worker swaps epochs in turn —
   in-process epoch swaps never stop accepting, so the fleet serves at
   full strength throughout, and sequencing means a poison state that
   kills workers on arrival is caught after the first one. *)
let rolling_reload t ~path =
  let source =
    match path with
    | Some p -> Ok p
    | None -> (
      match t.state_path with
      | Some p -> Ok p
      | None -> Error "no state file configured (start with --state-file or name one)")
  in
  Result.bind source @@ fun p ->
  match Fq_db.Codec.load_state p with
  | Error e -> Error e
  | Ok state ->
    t.state <- state;
    t.state_path <- Some p;
    t.reloads <- t.reloads + 1;
    let rolled = ref 0 in
    Array.iter
      (fun w ->
        if w.w_status = W_up && w.w_pid <> None then
          match Client.connect ~retries:5 ~timeout_ms:(max 1 t.cfg.probe_timeout_ms) w.w_addr with
          | Error e -> t.log (Printf.sprintf "fq fleet: %s: reload skipped: %s" w.w_name e)
          | Ok c ->
            (match Client.request c (Protocol.Reload { id = "fleet-reload"; path = Some p }) with
            | Ok (_, Protocol.R_ok j) ->
              incr rolled;
              t.log
                (Printf.sprintf "fq fleet: %s: reloaded (epoch %d)" w.w_name
                   (Option.value ~default:0
                      (Option.bind (Json.member "epoch" j) Json.to_int_opt)))
            | Ok _ | Error _ ->
              t.log (Printf.sprintf "fq fleet: %s: reload not acknowledged" w.w_name));
            Client.close c)
      t.ws;
    Ok !rolled

(* ------------------------------ control ----------------------------- *)

let worker_infos t =
  Array.to_list
    (Array.map
       (fun w ->
         { Protocol.worker = w.w_name;
           worker_addr = Server.addr_to_string w.w_addr;
           up = (w.w_status = W_up && w.w_pid <> None);
           pid = w.w_pid;
           restarts = w.w_restarts })
       t.ws)

let exposition t =
  let per_worker f = Array.to_list (Array.map (fun w -> ([ ("worker", w.w_name) ], f w)) t.ws) in
  Aggregate.exposition
    [ Aggregate.gauge_family ~name:"fq_fleet_worker_up"
        ~help:"Per-worker liveness (1 up, 0 crashed/backing off/parked)."
        (per_worker (fun w -> if w.w_status = W_up && w.w_pid <> None then 1. else 0.));
      Aggregate.counter_family ~name:"fq_fleet_restarts_total"
        ~help:"Per-worker crash restarts since fleet boot."
        (per_worker (fun w -> w.w_restarts));
      Aggregate.gauge_family ~name:"fq_fleet_workers"
        ~help:"Configured fleet size." [ ([], float_of_int t.cfg.workers) ];
      Aggregate.counter_family ~name:"fq_fleet_reloads_total"
        ~help:"Rolling reloads completed." [ ([], t.reloads) ];
      Aggregate.counter_family ~name:"fq_journal_compactions_total"
        ~help:"Parent-side journal-into-snapshot compactions." [ ([], t.compactions) ];
      Aggregate.counter_family ~name:"fq_fleet_journal_records_folded_total"
        ~help:"Worker journal records folded into the parent cache." [ ([], t.folded) ];
      Aggregate.gauge_family ~name:"fq_snapshot_last_save_timestamp_seconds"
        ~help:"Unix time of the last successful snapshot save (0 until the first)."
        [ ([], t.last_save) ] ]

let up_count t =
  Array.fold_left
    (fun acc w -> if w.w_status = W_up && w.w_pid <> None then acc + 1 else acc)
    0 t.ws

(* One synchronous control connection: the parent answers its own ops
   (topology, health, metrics, reload, shutdown, snapshot) and refuses
   evaluation — workers serve queries, the parent serves the fleet.  A
   read timeout bounds how long a silent peer can hold the loop: it
   surfaces as Sys_blocked_io, which ends the connection like EOF. *)
let handle_conn t fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send json =
    try
      output_string oc (Json.to_string json);
      output_char oc '\n';
      flush oc
    with Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ()
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
      (match Protocol.parse_request (String.trim line) with
      | Error e -> send (Protocol.malformed_response ~id:"" e)
      | Ok (Protocol.Ping { id }) -> send (Protocol.ok_response ~id [])
      | Ok (Protocol.Fleet_status { id }) ->
        send (Protocol.fleet_status_response ~id ~fleet:true (worker_infos t))
      | Ok (Protocol.Health { id }) ->
        send
          (Protocol.ok_response ~id
             [ ("fleet", Json.Bool true);
               ("workers", Json.Int t.cfg.workers);
               ("up", Json.Int (up_count t));
               ("reloads", Json.Int t.reloads);
               ("draining", Json.Bool t.stopping) ])
      | Ok (Protocol.Metrics { id }) ->
        send
          (Protocol.ok_response ~id
             [ ("version", Json.Int Aggregate.exposition_version);
               ("exposition", Json.Str (exposition t)) ])
      | Ok (Protocol.Reload { id; path }) -> (
        match rolling_reload t ~path with
        | Ok rolled ->
          send (Protocol.ok_response ~id [ ("workers_reloaded", Json.Int rolled) ])
        | Error e -> send (Protocol.malformed_response ~id ("reload: " ^ e)))
      | Ok (Protocol.Snapshot { id }) ->
        let _folded : int = compact t ~why:"snapshot request" in
        send
          (Protocol.ok_response ~id
             [ ("entries", Json.Int (Decide_cache.stats t.cache).Decide_cache.entries) ])
      | Ok (Protocol.Shutdown { id }) ->
        send (Protocol.ok_response ~id [ ("draining", Json.Bool true) ]);
        t.stopping <- true
      | Ok (Protocol.Eval _ | Protocol.Explain _ | Protocol.Traces _) ->
        send
          (Protocol.malformed_response ~id:""
             "fleet: evaluation is served by workers — connect via fq batch --connect, \
              which discovers them from fleet-status"));
      loop ()
  in
  loop ();
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try close_in ic with Sys_error _ -> ()

(* ----------------------------- shutdown ----------------------------- *)

(* Graceful drain: ask every live worker to shut down (the worker path
   answers its admitted requests before exiting), wait out the grace
   period, escalate SIGTERM then SIGKILL, fold every journal —
   destructively now, every owner is dead — and publish the snapshot. *)
let graceful_shutdown t =
  Array.iter
    (fun w ->
      if w.w_pid <> None then
        match Client.connect ~retries:0 ~timeout_ms:(max 1 t.cfg.probe_timeout_ms) w.w_addr with
        | Error _ -> (
          match w.w_pid with
          | Some pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          | None -> ())
        | Ok c ->
          (match Client.request c (Protocol.Shutdown { id = "fleet-shutdown" }) with
          | Ok _ -> ()
          | Error _ -> (
            match w.w_pid with
            | Some pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
            | None -> ()));
          Client.close c)
    t.ws;
  let deadline = now_ms () +. float_of_int t.cfg.drain_grace_ms in
  let rec wait escalated =
    reap t (now_ms ());
    if Array.for_all (fun w -> w.w_pid = None) t.ws then ()
    else if now_ms () > deadline then begin
      Array.iter
        (fun w ->
          match w.w_pid with
          | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          | None -> ())
        t.ws;
      if not escalated then wait true
      else
        Array.iter
          (fun w ->
            match w.w_pid with
            | Some pid ->
              (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
              w.w_pid <- None
            | None -> ())
          t.ws
    end
    else begin
      Unix.sleepf 0.05;
      wait escalated
    end
  in
  wait false;
  (* reap already folded each journal as its worker died; this pass only
     catches a journal whose worker we never managed to reap *)
  let _late : int = fold_journals t t.ws ~destructive:true in
  save_snapshot t ~why:"shutdown";
  let restarts = Array.fold_left (fun acc w -> acc + w.w_restarts) 0 t.ws in
  t.log
    (Printf.sprintf
       "fq fleet: shutdown complete — %d workers, %d restarts, %d reloads, %d journal \
        records folded"
       t.cfg.workers restarts t.reloads t.folded)

(* -------------------------------- boot ------------------------------ *)

let bind_control = function
  | Server.Unix_path path ->
    if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64;
       Ok fd
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)))
  | Server.Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 64;
       Ok fd
     with Unix.Unix_error (e, _, _) ->
       Unix.close fd;
       Error (Printf.sprintf "cannot bind port %d: %s" port (Unix.error_message e)))

let run cfg =
  if cfg.workers < 1 then Error "fleet: need at least one worker"
  else begin
    let serve = cfg.serve in
    let journal_base =
      match serve.Server.journal with
      | Some j -> Some j
      | None -> Option.map (fun s -> s ^ ".journal") serve.Server.snapshot
    in
    let ws =
      Array.init cfg.workers (fun i ->
          let name = "w" ^ string_of_int i in
          { w_idx = i;
            w_name = name;
            w_addr = worker_addr serve.Server.addr i;
            w_journal = Option.map (fun j -> j ^ "." ^ name) journal_base;
            w_pid = None;
            w_status = W_backoff;
            w_restarts = 0;
            w_crashes = [];
            w_next_spawn = 0.;
            w_backoff_ms = float_of_int cfg.base_backoff_ms;
            w_probe_fails = 0;
            w_journal_records = 0;
            w_folded_mark = 0 })
    in
    let t =
      { cfg;
        cache = Decide_cache.create ();
        ws;
        state = serve.Server.state;
        state_path = serve.Server.state_file;
        stopping = false;
        listen_fd = None;
        reloads = 0;
        compactions = 0;
        folded = 0;
        last_save = 0.;
        last_probe = 0.;
        term = Atomic.make false;
        hup = Atomic.make false;
        log = serve.Server.log }
    in
    (match Sys.os_type with
    | "Unix" ->
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
    | _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set t.term true))
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set t.hup true))
     with Invalid_argument _ -> ());
    (* warm boot: the snapshot, plus any journals a previous fleet left
       behind when it died uncleanly — fold them before the workers load
       the snapshot, so nothing a dead fleet decided is lost *)
    let snapshot_boot =
      match serve.Server.snapshot with
      | Some path when Sys.file_exists path ->
        Result.map Option.some (Decide_cache.load ~truncate:false t.cache path)
      | _ -> Ok None
    in
    Result.bind snapshot_boot @@ fun loaded ->
    let leftover = fold_journals t t.ws ~destructive:true in
    if leftover > 0 then begin
      t.log
        (Printf.sprintf "fq fleet: recovered %d journal records from a previous fleet"
           leftover);
      save_snapshot t ~why:"crash recovery"
    end;
    Option.iter
      (fun { Journal.applied; skipped; truncated_bytes } ->
        t.log
          (Printf.sprintf
             "fq fleet: warm start, %d cached verdicts loaded (%d skipped, %d torn bytes)"
             applied skipped truncated_bytes))
      loaded;
    (* workers fork before the control socket binds, so the first N
       children have no parent fd to leak; respawns close it *)
    let spawn_errors =
      Array.fold_left
        (fun acc w ->
          match spawn_worker t w with
          | Ok _ -> acc
          | Error e ->
            schedule_respawn t w (now_ms ());
            e :: acc)
        [] t.ws
    in
    List.iter (fun e -> t.log (Printf.sprintf "fq fleet: %s" e)) spawn_errors;
    Result.bind (bind_control serve.Server.addr) @@ fun listen_fd ->
    t.listen_fd <- Some listen_fd;
    t.log
      (Format.asprintf "fq fleet: supervising %d workers on %a (%s)" cfg.workers
         Server.pp_addr serve.Server.addr
         (String.concat ", "
            (Array.to_list (Array.map (fun w -> Server.addr_to_string w.w_addr) t.ws))));
    while not t.stopping do
      if Atomic.exchange t.term false then begin
        t.log "fq fleet: SIGTERM received, draining";
        t.stopping <- true
      end;
      if Atomic.exchange t.hup false then
        (match rolling_reload t ~path:None with
        | Ok _ -> ()
        | Error e -> t.log (Printf.sprintf "fq fleet: SIGHUP reload failed: %s" e));
      if not t.stopping then begin
        let now = now_ms () in
        reap t now;
        respawn_due t now;
        probes t now;
        match Unix.select [ listen_fd ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept listen_fd with
          | fd, _ -> handle_conn t fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end
    done;
    graceful_shutdown t;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (match serve.Server.addr with
    | Server.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Server.Tcp _ -> ());
    Ok 0
  end
