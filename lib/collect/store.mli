(** Persistent, queryable store of correlated MOAS episodes.

    {b Layout.}  A store is one flat, immutable value built once:
    - the entries in an array, in canonical order (trie (network,
      length) order, then (start time, sequence) within a prefix); an
      entry's position is its id;
    - each entry's {!Correlator.write_entry} image, back to back in one
      [bytes] with an offsets array;
    - a {!Net.Prefix_trie} from each prefix to its contiguous id range;
    - an origin index from each AS to the ascending ids of the entries
      whose origin set holds it, as flat arrays (sorted AS numbers,
      bounds, ids);
    - the vantage roster, so visibility renders as [k/N].

    {b Query cost.}  A query first picks candidate ids,
    then tests each with {!Query.matches} in ascending id order:
    - prefix clause: the prefix's id range, found in O(32) trie steps;
      with [covered], the range spanning the target and its
      more-specifics (one contiguous block in canonical order), found by
      a walk over the covered prefixes;
    - origin clause: that AS's ids, found by binary search, if fewer
      than the prefix range;
    - no prefix or origin clause: every id;
    - [since], [until], [min_visibility] and [bucket] only filter the
      candidates.
    {!count_matches} is O(1) past the candidate lookup when no clause is
    left to test, and otherwise folds over the candidates without
    building a list; {!query_images} copies the matching images without
    re-encoding them.

    On disk it uses the same defensive binary idiom as
    {!Stream.Checkpoint}: magic ["MOASSTOR"], a version octet, big-endian
    fixed-width fields, and a decoder that rejects truncation, trailing
    octets, bad tags, version mismatches and entries out of canonical
    order with {!Corrupt}. *)

type t
(** An immutable episode store. *)

exception Corrupt of string
(** Raised by {!decode} on malformed input. *)

val empty : vantages:string list -> t
(** An empty store over a vantage roster (names are sorted and deduped). *)

val of_correlation : Correlator.t -> t
(** Index every entry of a correlation result, in any order.  Of entries
    with the same prefix, sequence and start, the last one is kept. *)

val vantages : t -> string list
val count : t -> int

val entries : t -> Correlator.entry list
(** All entries in canonical order. *)

(** {2 Queries} *)

type query = Query.t
(** The unified typed query ({!Collect.Query}) — the same value the CLI
    [--query] flag parses and the [Serve.Proto] wire protocol carries.
    Build one with the {!Query} combinators. *)

val query : t -> query -> Correlator.entry list
(** Matching entries, in canonical order.  Open episodes extend to the
    end of time for the range test. *)

val count_matches : t -> query -> int
(** [List.length (query t q)], without building the list. *)

val query_images : t -> query -> int * int * (bytes -> int -> unit)
(** [query_images t q] is [(n, len, blit)] for the entries {!query}
    returns: their number, the total length of their
    {!Correlator.write_entry} images, and [blit dst pos], which copies
    those images back to back, in canonical order, into [dst] at [pos].
    [Serve] builds an [Entries] frame from it without re-encoding an
    entry. *)

(** {2 Persistence} *)

val encode : t -> bytes
(** The roster and entry count, then the stored images in one blit. *)

val decode : bytes -> t
(** The entry images are sliced from the input, not re-encoded.
    @raise Corrupt on bad magic, version mismatch, truncation, trailing
    octets, invalid field values, or entries that are out of canonical
    order or repeat a (prefix, sequence, start) key. *)

val write_file : string -> t -> unit
val read_file : string -> t

(** {2 Report} *)

val render : t -> string
(** Deterministic text listing: roster, entry count, and one line per
    entry with visibility [k/N]. *)
