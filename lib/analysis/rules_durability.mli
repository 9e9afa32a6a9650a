(** Durability rules for the spill-file write path (see {!Store}). *)

val all : Rule.t list
(** One rule, [durable-write-discipline]: any buffered channel
    writer ([open_out]/[open_out_bin]/[open_out_gen]/[output_string]/
    [output_bytes]/[output_char]/[output_substring], bare or
    qualified through [Stdlib]/[Out_channel]/[Printf]) inside [lib/store/] or [lib/service/] is
    flagged unless it sits in the top-level [atomic_write] binding —
    the one sanctioned writer, which stages bytes in a temp file,
    fsyncs and renames so spill entries are never observed torn. A
    lexical approximation: it cannot see a channel's destination path,
    so it scopes by layer instead, where every file write is a
    spill-directory write. *)
