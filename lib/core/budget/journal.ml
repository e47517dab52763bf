(* CRC-framed record segments for the decide cache: the append-only
   journal and the compacted snapshot.  See journal.mli for the format
   and the recovery semantics; the invariant everything
   below maintains is that the file is always a valid header followed by
   zero or more complete records plus at most one torn tail, so recovery
   can never be worse than "lose the record being written". *)

let magic = "fq-decide-journal"
let version = 1
let header = Printf.sprintf "%s %d" magic version

(* IEEE CRC-32 (polynomial 0xEDB88320, the zlib/PNG one), table-driven.
   Pure OCaml so the journal adds no dependencies; on native ints, which
   cost ~2.5x less per byte than boxed Int32. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* The CRC of [len] bytes of [s] from [pos]. *)
let crc s pos len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let b = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get table ((!c lxor b) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc s 0 (String.length s))
let frame payload = Printf.sprintf "%08x\t%s\n" (crc payload 0 (String.length payload)) payload

(* The complete record in [s] from [pos] up to its newline at [stop]:
   the payload if the frame checks out.  Unframing in place spares
   recovery a copy of every line. *)
let unframe s pos stop =
  let len = stop - pos - 9 in
  if len < 0 || s.[pos + 8] <> '\t' then None
  else
    match int_of_string_opt ("0x" ^ String.sub s pos 8) with
    | Some c when c = crc s (pos + 9) len -> Some (String.sub s (pos + 9) len)
    | _ -> None

type t = {
  j_path : string;
  mutable j_fd : Unix.file_descr;
  mutable j_appended : int;
  mutable j_closed : bool;
}

type recovery = { applied : int; skipped : int; truncated_bytes : int }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recover ?(truncate = true) path ~f =
  if not (Sys.file_exists path) then Ok { applied = 0; skipped = 0; truncated_bytes = 0 }
  else
    match read_file path with
    | exception Sys_error e -> Error (Printf.sprintf "journal: cannot read %s: %s" path e)
    | contents ->
        (* Keep only the terminated prefix; whatever follows the last
           newline is a torn tail from an interrupted append. *)
        let valid_len =
          match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
        in
        let torn = String.length contents - valid_len in
        if valid_len = 0 then begin
          (* Nothing but a torn tail: the header itself never made it
             to disk whole.  Treat as empty — open_append rewrites it. *)
          if torn > 0 && truncate then
            (try Unix.truncate path 0 with Unix.Unix_error _ -> ());
          Ok { applied = 0; skipped = 0; truncated_bytes = torn }
        end
        else
          let hd = String.sub contents 0 (String.index contents '\n') in
          if not (String.equal hd header) then
            Error (Printf.sprintf "journal: %s: bad header %S (want %S)" path hd header)
          else begin
            if torn > 0 && truncate then
              (try Unix.truncate path valid_len with Unix.Unix_error _ -> ());
            let applied = ref 0 and skipped = ref 0 in
            let pos = ref (String.length hd + 1) in
            while !pos < valid_len do
              let stop = String.index_from contents !pos '\n' in
              (match unframe contents !pos stop with
              | Some payload ->
                  f payload;
                  incr applied
              | None -> incr skipped);
              pos := stop + 1
            done;
            Ok { applied = !applied; skipped = !skipped; truncated_bytes = torn }
          end

let open_append path =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let size = (Unix.fstat fd).Unix.st_size in
    if size = 0 then begin
      let line = header ^ "\n" in
      let n = Unix.write_substring fd line 0 (String.length line) in
      if n <> String.length line then begin
        Unix.close fd;
        failwith "short write on journal header"
      end
    end;
    Ok { j_path = path; j_fd = fd; j_appended = 0; j_closed = false }
  with
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "journal: cannot open %s: %s" path (Unix.error_message e))
  | Failure e -> Error (Printf.sprintf "journal: %s: %s" path e)

(* Append one framed record.  O_APPEND makes the write atomic with
   respect to position; a short write (ENOSPC mid-record) leaves a torn
   tail that the next recovery truncates — never a corrupt prefix. *)
let append t payload =
  if t.j_closed then Error "journal: closed"
  else
    match Fault.hit "journal.append" with
    | exception e -> Error (Printf.sprintf "journal: injected fault: %s" (Printexc.to_string e))
    | () -> (
        let line = frame payload in
        match Unix.write_substring t.j_fd line 0 (String.length line) with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "journal: append: %s" (Unix.error_message e))
        | n when n <> String.length line ->
            Error (Printf.sprintf "journal: short write (%d/%d bytes)" n (String.length line))
        | _ ->
            t.j_appended <- t.j_appended + 1;
            Ok ())

let sync t = if not t.j_closed then try Unix.fsync t.j_fd with Unix.Unix_error _ -> ()

let close t =
  if not t.j_closed then begin
    t.j_closed <- true;
    try Unix.close t.j_fd with Unix.Unix_error _ -> ()
  end

let path t = t.j_path
let appended t = t.j_appended

(* Write-to-temp + rename keeps a valid segment at [path] at every
   instant: a crash before the rename leaves the old file, one after it
   the new. *)
let write path payloads =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (header ^ "\n");
        Seq.iter (fun p -> output_string oc (frame p)) payloads;
        close_out oc);
    Sys.rename tmp path;
    Ok ()
  with Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error e

(* Compaction: the cache was just snapshotted, so the journal's records
   are redundant — swap in a fresh header-only file.  The fd must be
   reopened because the rename detaches the old inode. *)
let reset t =
  if t.j_closed then Error "journal: closed"
  else
    match Fault.hit "journal.rotate" with
    | exception e -> Error (Printf.sprintf "journal: injected fault: %s" (Printexc.to_string e))
    | () -> (
        match write t.j_path Seq.empty with
        | Error e -> Error ("journal: reset: " ^ e)
        | Ok () -> (
            (try Unix.close t.j_fd with Unix.Unix_error _ -> ());
            try
              t.j_fd <- Unix.openfile t.j_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
              Ok ()
            with Unix.Unix_error (e, _, _) ->
              Error ("journal: reset: " ^ Unix.error_message e)))
