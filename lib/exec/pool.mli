(** Deterministic parallel task execution on an OCaml 5 domain pool.

    {!map} distributes independent tasks over a fixed number of domains
    and returns the results {e in input order}, so a computation whose
    per-task randomness is pre-split (every sweep in {!Experiments}
    derives each run's stream from the run's index, never from execution
    order) produces byte-identical output at any job count.  That is the
    determinism contract: [map ~jobs:n f a = Array.map f a] for every
    [n >= 1], provided each [f a.(i)] neither reads mutable state written
    by another task nor mutates state read by one.

    Tasks therefore must build their own per-run state — simulation
    engine, network, metrics registry — inside the task body, and results
    (including per-task registries) are merged after the pool joins, in
    input order. *)

val default_jobs : unit -> int
(** The job count used when {!map} is not given one: the [MOAS_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] computes [Array.map f a] using up to [jobs] domains
    (including the calling one).  Tasks are claimed by index from a shared
    counter; each result lands in its input slot.  With [jobs <= 1] (or
    fewer than two tasks) no domain is spawned and the call is exactly
    [Array.map f a].

    If any task raises, the first exception observed is re-raised in the
    caller after every domain has joined, with the backtrace of the domain
    it was raised on (helper domains record backtraces when the caller
    does); remaining unclaimed tasks are abandoned.  [jobs] is the degree
    of concurrency: [jobs - 1] domains are spawned for the call, also
    above the core count, and joined before it returns, so a nested
    {!map} inside a task spawns its own. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List convenience wrapper around {!map}; same contract. *)
