(** Whole-buffer writes and directory syncs on raw file descriptors,
    shared by the data file, the WAL, log shipping and the server's
    sockets. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd buf pos len] writes [buf.(pos .. pos+len-1)], one
    write(2) at a time, retrying a call a signal interrupted. Each call
    is {!Unix.single_write}: it raises EINTR only when it wrote nothing,
    so no byte is sent twice ({!Unix.write} loops by itself and can
    raise after part of the buffer went out). Other errors propagate. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory, making a rename in it durable;
    errors are ignored. *)
