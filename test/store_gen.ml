(* qcheck generators for random episode stores and queries, shared by the
   store and serve suites' differential properties.  The prefixes nest on
   both sides of the trie (a /8 with more-specifics under each half,
   plus the default route), a prefix carries several episodes, some
   open, and the queries draw on every clause. *)

open Net
module Corr = Collect.Correlator
module Q = Collect.Query

let prefixes =
  List.map Prefix.of_string
    [
      "0.0.0.0/0";
      "10.0.0.0/8";
      "10.0.0.0/9";
      "10.0.0.0/16";
      "10.0.1.0/24";
      "10.128.0.0/9";
      "10.128.0.0/24";
      "10.200.0.0/16";
      "192.0.2.0/24";
      "192.0.2.128/25";
    ]

let roster = [ "vp00"; "vp01"; "vp02"; "vp03" ]
(* both octets of the 16-bit AS number vary *)
let origins = [ 1; 2; 258; 513; 4_000; 65_000 ]

let entry_gen =
  let open QCheck2.Gen in
  let* x_prefix = oneofl prefixes in
  let* x_seq = int_range 0 3 in
  let* x_started = int_range 0 400 in
  let* x_ended = option (map (fun d -> x_started + d) (int_range 0 400)) in
  let* x_days = oneofl [ 0; 1; 2; 60; 61; 300 ] in
  let* origins = list_size (int_range 1 3) (oneofl origins) in
  let* x_clean = bool in
  let* seen = list_repeat (List.length roster) bool in
  let* x_first_detect = option (int_range 0 800) in
  let+ x_last_detect = option (int_range 0 800) in
  let x_origins = Asn.Set.of_list (List.map Asn.make origins) in
  {
    Corr.x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins = Asn.Set.cardinal x_origins;
    x_origins;
    x_clean;
    x_seen_by = List.filteri (fun i _ -> List.nth seen i) roster;
    x_first_detect;
    x_last_detect;
  }

(* a correlation in arbitrary order; small time and sequence ranges make
   repeated (prefix, start, seq) keys common *)
let correlation_gen =
  QCheck2.Gen.map
    (fun c_entries -> { Corr.c_vantages = roster; c_entries })
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 40) entry_gen)

let query_gen =
  let open QCheck2.Gen in
  let clause g = option ~ratio:0.4 g in
  let* p = clause (oneof [ oneofl prefixes; Testutil.prefix_gen ]) in
  let* cov = bool in
  let* o = clause (oneofl (3 :: origins)) in
  let* since = clause (int_range 0 800) in
  let* until = clause (int_range 0 800) in
  let* k = clause (int_range 0 5) in
  let+ b = clause (oneofl Stream.Monitor.[ Short; Medium; Long ]) in
  let add f v q = match v with Some v -> f v q | None -> q in
  Q.empty
  |> add Q.prefix p
  |> (if cov then Q.covered else Fun.id)
  |> add (fun o -> Q.origin (Asn.make o)) o
  |> add Q.since since |> add Q.until until |> add Q.min_visibility k
  |> add Q.bucket b

let store_and_queries_gen =
  QCheck2.Gen.pair correlation_gen (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 20) query_gen)

let print_case (c, qs) =
  Printf.sprintf "%d entries; queries: %s"
    (List.length c.Corr.c_entries)
    (String.concat " | " (List.map Q.to_string qs))

(* the entries' binary images, for comparing entry lists exactly *)
let images es =
  let buf = Buffer.create 256 in
  List.iter (Corr.write_entry buf) es;
  Buffer.contents buf
