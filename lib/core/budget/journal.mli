(** Crash-safe CRC-framed record segments, the decide cache's one
    persistence format: the append-only {e journal} (one record per
    verdict as it lands, so a [kill -9] loses at most a torn write) and
    the compacted {e snapshot} ({!write}), both read by {!recover}.

    {b File format} (text, versioned):
    {v
    fq-decide-journal 1
    CRC8HEX<TAB>PAYLOAD
    ...
    v}
    One record per line.  [CRC8HEX] is the IEEE CRC-32 of the payload
    bytes in lowercase hex; the payload is an opaque single-line string
    (the decide-cache entry rendering — tabs allowed, newlines excluded
    by construction).  The framing makes every corruption mode
    detectable and non-fatal:
    - a {e torn tail} (the crash interrupted a write, so the file does
      not end in a newline) is truncated back to the last complete
      record;
    - a {e corrupt record} anywhere (bit rot, a torn write that happens
      to contain a newline) fails its CRC and is skipped, without
      sacrificing the valid records after it;
    - an {e empty or missing} file recovers to zero records.
    Only a wrong magic/version header is an error — that file is not a
    segment, and silently resetting it would destroy user data.

    {b Fault sites} (chaos drills, see {!Fault}):
    ["journal.append"] fires before each record write (models short
    writes and ENOSPC — a faulted append leaves the file unchanged, so
    recovery still sees a valid prefix); ["journal.rotate"] fires before
    the atomic temp+rename of {!reset} (models a torn rename — the old
    journal survives intact). *)

type t
(** An open journal, positioned for appending.  Not thread-safe by
    itself: callers serialize access (the server holds one journal
    mutex). *)

type recovery = {
  applied : int;  (** records that passed their CRC and were replayed *)
  skipped : int;  (** corrupt records dropped *)
  truncated_bytes : int;  (** torn-tail bytes cut from the file *)
}

val recover : ?truncate:bool -> string -> f:(string -> unit) -> (recovery, string) result
(** [recover path ~f] replays every valid record's payload through [f]
    in append order, truncates a torn tail in place, and reports what it
    found.  A missing or empty file recovers to zero records; [Error]
    only on a wrong header (not a journal) or an unreadable file.
    [~truncate:false] makes the pass read-only (a torn tail is reported
    but left in place) — the fleet parent's mode for folding a {e live}
    worker's journal, where the worker still owns the append position
    and truncating under it would destroy a record mid-write. *)

val open_append : string -> (t, string) result
(** Open [path] for appending, creating it (with the version header) if
    missing or empty.  Call {!recover} first on an existing file so the
    append position sits after a complete record. *)

val append : t -> string -> (unit, string) result
(** Frame one payload (which must not contain a newline) with its CRC
    and append it, flushing to the OS so the record survives a process
    crash.  [Error] on I/O failure (e.g. ENOSPC) — the journal stays
    usable; the record is simply not durable. *)

val reset : t -> (unit, string) result
(** Atomically replace the journal with a fresh header-only file (temp
    file + rename) and reopen for appending — the compaction step, after
    the cache has been snapshotted.  On [Error] the old journal is left
    in place (records are then replayed twice at the next boot, which is
    idempotent). *)

val write : string -> string Seq.t -> (unit, string) result
(** [write path payloads] atomically replaces [path] with a segment
    holding exactly [payloads], in order: the header plus one framed
    record each, written as the sequence is consumed to [path ^ ".tmp"]
    and renamed over [path].  On [Error] the file at [path] is untouched
    and no temp file is left behind. *)

val sync : t -> unit
(** [fsync] the journal file descriptor. *)

val close : t -> unit

val path : t -> string

val appended : t -> int
(** Records appended through this handle since {!open_append} (resets do
    not clear it). *)

val crc32 : string -> int32
(** The IEEE CRC-32 used for framing (exposed for tests). *)
