open Net
module Srv = Measurement.Synthetic_routeviews

type batch = { time : int; day : Mutil.Day.t option; events : Monitor.event array }

let day_seconds = 86_400

type annotator = Prefix.t -> Asn.Set.t -> Asn.t -> Asn.Set.t option

let no_annotation : annotator = fun _ _ _ -> None

let trusted_annotator ?(distrusted = Asn.Set.empty) () : annotator =
 fun _prefix origins _origin ->
  if Asn.Set.exists (fun a -> Asn.Set.mem a distrusted) origins then None
  else Some origins

(* Diff consecutive daily tables into announce/withdraw events.  When a
   prefix's origin set changes, the withdrawals come first and then every
   current origin re-announces with a freshly computed MOAS list — the
   wire behaviour of origins updating the list as membership changes, and
   the order that keeps a legitimately shrinking conflict from being
   flagged over a stale list.

   Both tables are strictly increasing by [Prefix.compare] (the
   [Synthetic_routeviews.day_dump] invariant), so the diff is one merge:
   today's changes come out in table order and the prefixes that vanished
   since yesterday are withdrawn after them, in prefix order.  Events are
   accumulated in reverse. *)
let day_events ~annotate ~prev dump =
  let time = dump.Srv.day * day_seconds in
  let withdraw prefix origins acc =
    Asn.Set.fold
      (fun origin acc ->
        { Monitor.time; peer = origin; prefix; action = Monitor.Withdraw { origin } }
        :: acc)
      origins acc
  in
  let change prefix ~was origins acc =
    if Asn.Set.equal origins was then acc
    else
      Asn.Set.fold
        (fun origin acc ->
          {
            Monitor.time;
            peer = origin;
            prefix;
            action =
              Monitor.Announce
                { origin; moas_list = annotate prefix origins origin };
          }
          :: acc)
        origins
        (withdraw prefix (Asn.Set.diff was origins) acc)
  in
  (* step past today's row [p]: the next row must sort strictly after it *)
  let advance p = function
    | (p', _) :: _ when Prefix.compare p p' >= 0 ->
      invalid_arg
        ("Source.day_events: table not strictly increasing at "
        ^ Prefix.to_string p')
    | rest -> rest
  in
  let rec merge changes vanished today prev =
    match (today, prev) with
    | [], _ ->
      List.rev_append changes
        (List.rev
           (List.fold_left (fun acc (q, was) -> withdraw q was acc) vanished prev))
    | (p, origins) :: rest, (q, was) :: prev' ->
      let c = Prefix.compare q p in
      if c < 0 then merge changes (withdraw q was vanished) today prev'
      else if c = 0 then
        merge (change p ~was origins changes) vanished (advance p rest) prev'
      else
        merge
          (change p ~was:Asn.Set.empty origins changes)
          vanished (advance p rest) prev
    | (p, origins) :: rest, [] ->
      merge
        (change p ~was:Asn.Set.empty origins changes)
        vanished (advance p rest) []
  in
  Array.of_list (merge [] [] dump.Srv.table prev)

(* ------------------------------------------------------------------ *)
(* The uniform pull interface: every source — synthetic archive, MRT
   blobs, decoded wire messages, pre-materialised batches — is opened as
   a [t] and drained with [next]/[close], so the serving daemon's live
   tail and the batch monitor share one ingestion entry point
   ({!Sharded.ingest_source}) instead of per-source plumbing. *)

type t = {
  mutable pull : unit -> batch option;
  mutable closed : bool;
}

let make pull = { pull; closed = false }

let next s = if s.closed then None else s.pull ()

let close s =
  s.closed <- true;
  s.pull <- (fun () -> None)

let fold s ~init ~f =
  Fun.protect
    ~finally:(fun () -> close s)
    (fun () ->
      let rec loop acc =
        match next s with None -> acc | Some b -> loop (f acc b)
      in
      loop init)

let of_seq seq =
  let state = ref seq in
  make (fun () ->
      match !state () with
      | Seq.Nil -> None
      | Seq.Cons (b, rest) ->
        state := rest;
        Some b)

let of_batches batches = of_seq (Array.to_seq batches)

let of_archive ?(annotate = no_annotation) params =
  let prev = ref [] in
  let dumps = ref (Srv.dump_seq params) in
  make (fun () ->
      match !dumps () with
      | Seq.Nil -> None
      | Seq.Cons (dump, rest) ->
        dumps := rest;
        let events = day_events ~annotate ~prev:!prev dump in
        prev := dump.Srv.table;
        Some
          { time = dump.Srv.day * day_seconds; day = Some dump.Srv.day; events })

let fold_archive ?annotate params ~init ~f =
  fold (of_archive ?annotate params) ~init ~f

let archive_batches ?annotate params =
  Array.of_list
    (List.rev
       (fold_archive ?annotate params ~init:[] ~f:(fun acc b -> b :: acc)))

(* ------------------------------------------------------------------ *)
(* Wire and MRT adapters *)

let of_wire ~time ~peer (message : Bgp.Wire.message) =
  let withdraws =
    List.map
      (fun prefix ->
        { Monitor.time; peer; prefix; action = Monitor.Withdraw { origin = peer } })
      message.Bgp.Wire.withdrawn
  in
  let announces =
    match message.Bgp.Wire.attributes with
    | None -> []
    | Some attrs ->
      let origin =
        Option.value ~default:peer
          (Bgp.As_path.origin_as attrs.Bgp.Wire.as_path)
      in
      let moas_list = Moas.Moas_list.decode attrs.Bgp.Wire.communities in
      List.map
        (fun prefix ->
          {
            Monitor.time;
            peer;
            prefix;
            action = Monitor.Announce { origin; moas_list };
          })
        message.Bgp.Wire.nlri
  in
  Array.of_list (withdraws @ announces)

let of_wire_feed feed =
  of_seq
    (Seq.map
       (fun (time, peer, message) ->
         { time; day = None; events = of_wire ~time ~peer message })
       (List.to_seq feed))

let of_mrt data =
  let events, last =
    Measurement.Mrt.fold_records data ~init:([], 0) ~f:(fun (acc, last) r ->
        let origin =
          Option.value ~default:r.Measurement.Mrt.peer_as
            (Bgp.As_path.origin_as r.Measurement.Mrt.as_path)
        in
        let ev =
          {
            Monitor.time = r.Measurement.Mrt.timestamp;
            peer = r.Measurement.Mrt.peer_as;
            prefix = r.Measurement.Mrt.prefix;
            action = Monitor.Announce { origin; moas_list = None };
          }
        in
        (ev :: acc, max last r.Measurement.Mrt.timestamp))
  in
  { time = last; day = None; events = Array.of_list (List.rev events) }

let of_mrt_blobs blobs = of_seq (Seq.map of_mrt (List.to_seq blobs))
