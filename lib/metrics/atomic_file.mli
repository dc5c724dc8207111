(** Crash-safe file publication.

    The persistence layers (the analysis store, captured graphs, BENCH
    trajectory files) all publish whole files: the data goes to a unique
    temporary file beside the target, which is renamed over it only after
    every byte is written and the channel closed.  A crash or a concurrent
    writer can therefore never leave a torn file under the target name —
    readers see the previous file or the new one. *)

val write : string -> string -> (unit, string) result
(** [write file data] atomically replaces [file] with [data].  On failure
    (unwritable directory, full disk, file-size limit) [file] is left as
    it was, the temporary file is removed, and [Error] carries the system
    message.  Never raises [Sys_error]. *)
