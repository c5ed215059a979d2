(** The persistent solving daemon.

    Accepts connections on a Unix or TCP socket, reads one JSON request
    per line ({!Protocol}), runs solving requests through a two-tier
    response cache — an in-memory {!Putil.Cache} spilling to an
    on-disk {!Putil.Disk_store} — and the shared domain pool, and
    streams responses back in completion order (ids match them up).

    Threading: one accept thread, one reader thread per connection, one
    thread per request.  The solve itself runs through {!Putil.Pool}:
    on a worker domain, or on the request's own thread while it awaits,
    so concurrent requests from any number of clients batch across one
    fixed pool, and identical in-flight requests collapse to a single
    solve (single-flight).

    Persistence: with a store attached, computed responses are written
    through to disk immediately (crash-safe, digest-framed), and the
    pipeline's graph cache spills/revives through the same store
    ({!Pipeline.Stages.attach_store}) — a restarted daemon answers
    repeated requests from warm artifacts ([cached:"disk"]). *)

type address = Unix_socket of string | Tcp of string * int

val pp_address : Format.formatter -> address -> unit

type config = {
  address : address;
  store_root : string option;  (** [None]: memory-only, no persistence *)
  store_limit_bytes : int;  (** [<= 0] unbounded *)
  cache_capacity : int;  (** in-memory response entries *)
  pool : Putil.Pool.t option;  (** [None]: {!Putil.Pool.get_default} *)
}

val default_config : address -> config
(** No store, cache capacity 64, shared default pool. *)

type t

val start : config -> t
(** Bind, listen and spawn the accept thread; returns immediately.
    Raises [Unix.Unix_error] when the address cannot be bound. *)

val address : t -> address
(** The bound address; for [Tcp (host, 0)] the kernel-assigned port. *)

val wait : t -> unit
(** Block until the daemon stops (a [shutdown] request or {!stop}),
    then join every connection thread and remove a Unix socket file.
    Stopping shuts down the receive side of every open connection, so a
    client that keeps its connection open cannot hold [wait] up; answers
    to requests already read are still sent. *)

val stop : t -> unit
(** Stop accepting, close the listen socket and {!wait}. *)

val run : config -> unit
(** [start] + [wait]. *)
