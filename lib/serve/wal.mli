(** Per-session write-ahead log: crash-durable session state.

    The server logs every session mutation {e before} applying it
    (validate → append → apply).  Session policies are deterministic,
    so replaying the logged events through {!Dsp_engine.Session.replay}
    semantics reproduces the exact placements — the recovery invariant
    the crash-recovery differential test pins down.

    On-disk format: a sequence of records, each framed as
    [u32-le length | u32-le crc32 | payload] where the payload is a
    small line-oriented text block ({!encode_record}).  The framing
    makes torn tails detectable: a crash mid-append leaves a final
    record whose length field, payload, or checksum is incomplete or
    wrong; {!recover} stops at the first such record and truncates the
    file back to the last good boundary, so a recovered log is always
    a clean prefix of what was written.

    Durability is tunable per log: {!fsync_policy} [Always] fsyncs
    every append (every acknowledged mutation survives power loss),
    [Every n] amortizes over [n] appends, [Never] leaves flushing to
    the OS.  Compaction ({!compact}) atomically replaces the log with
    a single {!Snapshot} record (write temp + fsync + rename), so a
    crash during compaction leaves either the old log or the new one,
    never a mix.

    Fault sites: {!append} counts [wal.appends] and honors pending
    {!Dsp_util.Fault} actions — [Corrupt] flips a payload byte on its
    way to disk (recovery must then reject the record by checksum),
    [Short] writes a prefix of the frame and raises
    {!Dsp_util.Fault.Injected} (a deterministic torn tail); {!sync}
    counts [wal.fsyncs] (a [Raise] there models a failing fsync). *)

type fsync_policy = Always | Every of int | Never

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["never"], or ["every:N"] with [N >= 1]. *)

val fsync_policy_to_string : fsync_policy -> string

type record =
  | Header of { width : int; policy : string; k : int }
      (** first record of a fresh log: how to rebuild the session *)
  | Event of Dsp_instance.Trace.event
  | Snapshot of {
      width : int;
      policy : string;
      k : int;
      n_arrived : int;
      n_migrations : int;
      live : (int * int * int * int) list;  (** (id, w, h, start) *)
    }  (** full state at compaction: feeds {!Dsp_engine.Session.restore} *)

val encode_record : record -> string
(* lint: ok R10 the codec's round-trip test covers every record kind *)
val decode_record : string -> (record, string) result
(** Text payload codec, exposed for tests; total. *)

type t

val create : ?fsync:fsync_policy -> string -> t
(** Open a fresh log at this path, truncating any existing file
    ([fsync] defaults to [Always]).  Raises [Unix.Unix_error] when the
    path cannot be created. *)

type recovery = {
  records : record list;  (** every intact record, in log order *)
  truncated_bytes : int;  (** torn/corrupt tail bytes cut off, 0 if clean *)
}

val recover : ?fsync:fsync_policy -> string -> (t * recovery, string) result
(** Open an existing log, scan and checksum every record, truncate the
    file back to the last intact record boundary, and return the log
    positioned for appending.  A missing file recovers as an empty
    log.  [Error] only for environmental failures (permissions, a
    directory in the way) — corrupt {e content} is never an error,
    it is truncated data. *)

val append : t -> record -> unit
(** Frame, checksum, and write one record, then fsync per policy.
    Counts [wal.appends]; honors injected faults (see module doc). *)

val sync : t -> unit
(** Force an fsync now (counts [wal.fsyncs]). *)

val compact : t -> record -> unit
(** Atomically replace the whole log with this single record (intended
    to be a {!Snapshot}): write [path ^ ".tmp"], fsync it, rename over
    [path].  Counts [wal.compactions]; resets {!appended}. *)

val appended : t -> int
(** Records appended since {!create}/{!recover}/{!compact} — the
    counter the server's [compact_every] trigger reads. *)

val path : t -> string
val close : t -> unit
