(* Reference implementations that the library replaced with linear-time
   merges, kept as differential oracles for the test suites:

   - [correlate]: the nested-scan cross-vantage correlator.  For every
     merged episode it filters each vantage's whole episode list, so it
     costs O(M * sum |V_i|) prefix comparisons, but it has no reliance on
     the order of [Stream.Report.episodes].
   - [archive_batches]: the archive replay whose day diff rebuilds a
     [Prefix.Map] of the whole table every day and looks every row up in
     it, so it has no reliance on the table order either.

   - [Store]: the episode store as a trie of per-prefix entry lists,
     built by one sorted insert per entry and queried by filtering the
     whole entry list, so every query costs O(store), whatever clauses
     it has.
   - [crc32] and the [take_*] readers: the CRC one octet per step, and
     the multi-octet readers as chains of [Codec.take_u8].
   - [merge_snapshots]: the shard merge that concatenates every shard's
     prefix states and closed episodes and sorts them again, so it has
     no reliance on each shard's lists being sorted already.

   [Collect.Correlator.correlate], [Stream.Source.archive_batches],
   [Collect.Store], [Net.Codec] and [Stream.Monitor.merge_snapshots]
   must reproduce them exactly. *)

open Net
module Report = Stream.Report
module Corr = Collect.Correlator
module Monitor = Stream.Monitor
module Src = Stream.Source
module Srv = Measurement.Synthetic_routeviews

let overlaps ~started ~ended (v : Report.episode_view) =
  (* open intervals extend to the end of time *)
  let hi = Option.value ended ~default:max_int in
  let v_hi = Option.value v.Report.v_ended ~default:max_int in
  v.Report.v_started <= hi && started <= v_hi

let correlate ~vantages ~merged =
  let vantages =
    List.sort (fun (a, _) (b, _) -> String.compare a b) vantages
  in
  let views =
    List.map (fun (name, snap) -> (name, Report.episodes snap)) vantages
  in
  let entries =
    List.map
      (fun (m : Report.episode_view) ->
        let sightings =
          List.filter_map
            (fun (name, eps) ->
              let matching =
                List.filter
                  (fun (v : Report.episode_view) ->
                    Prefix.compare v.Report.v_prefix m.Report.v_prefix = 0
                    && overlaps ~started:m.Report.v_started
                         ~ended:m.Report.v_ended v)
                  eps
              in
              match matching with
              | [] -> None
              | _ ->
                let first =
                  List.fold_left
                    (fun acc (v : Report.episode_view) ->
                      min acc v.Report.v_started)
                    max_int matching
                in
                Some (name, first))
            views
        in
        let detects = List.map snd sightings in
        {
          Corr.x_prefix = m.Report.v_prefix;
          x_seq = m.Report.v_seq;
          x_started = m.Report.v_started;
          x_ended = m.Report.v_ended;
          x_days = m.Report.v_days;
          x_max_origins = m.Report.v_max_origins;
          x_origins = m.Report.v_origins;
          x_clean = m.Report.v_clean;
          x_seen_by = List.map fst sightings;
          x_first_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left min max_int detects));
          x_last_detect =
            (match detects with
            | [] -> None
            | _ -> Some (List.fold_left max min_int detects));
        })
      (Report.episodes merged)
  in
  { Corr.c_vantages = List.map fst vantages; c_entries = entries }

let day_events ~annotate ~prev dump =
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let time = dump.Srv.day * Src.day_seconds in
  let today =
    List.fold_left
      (fun m (p, o) -> Prefix.Map.add p o m)
      Prefix.Map.empty dump.Srv.table
  in
  List.iter
    (fun (prefix, origins) ->
      let prev_origins =
        Option.value ~default:Asn.Set.empty (Prefix.Map.find_opt prefix prev)
      in
      if not (Asn.Set.equal origins prev_origins) then begin
        Asn.Set.iter
          (fun origin ->
            emit
              {
                Monitor.time;
                peer = origin;
                prefix;
                action = Monitor.Withdraw { origin };
              })
          (Asn.Set.diff prev_origins origins);
        Asn.Set.iter
          (fun origin ->
            emit
              {
                Monitor.time;
                peer = origin;
                prefix;
                action =
                  Monitor.Announce
                    { origin; moas_list = annotate prefix origins origin };
              })
          origins
      end)
    dump.Srv.table;
  Prefix.Map.iter
    (fun prefix prev_origins ->
      if not (Prefix.Map.mem prefix today) then
        Asn.Set.iter
          (fun origin ->
            emit
              {
                Monitor.time;
                peer = origin;
                prefix;
                action = Monitor.Withdraw { origin };
              })
          prev_origins)
    prev;
  (Array.of_list (List.rev !events), today)

let archive_batches ?(annotate = Src.no_annotation) params =
  let _, batches =
    Srv.fold_dumps params ~init:(Prefix.Map.empty, [])
      ~f:(fun (prev, acc) dump ->
        let events, today = day_events ~annotate ~prev dump in
        ( today,
          {
            Src.time = dump.Srv.day * Src.day_seconds;
            day = Some dump.Srv.day;
            events;
          }
          :: acc ))
  in
  Array.of_list (List.rev batches)

module Store = struct
  type t = {
    roster : string list;
    trie : Corr.entry list Prefix_trie.t; (* per-prefix, (started, seq) order *)
  }

  let compare_entry (a : Corr.entry) (b : Corr.entry) =
    let c = Int.compare a.Corr.x_started b.Corr.x_started in
    if c <> 0 then c else Int.compare a.Corr.x_seq b.Corr.x_seq

  (* an entry with an existing (prefix, started, seq) key replaces it *)
  let add (e : Corr.entry) t =
    let trie =
      Prefix_trie.update e.Corr.x_prefix
        (fun prev ->
          let kept =
            List.filter
              (fun old -> compare_entry old e <> 0)
              (Option.value prev ~default:[])
          in
          Some (List.sort compare_entry (e :: kept)))
        t.trie
    in
    { t with trie }

  let of_correlation (c : Corr.t) =
    List.fold_left
      (fun t e -> add e t)
      { roster = List.sort_uniq String.compare c.Corr.c_vantages; trie = Prefix_trie.empty }
      c.Corr.c_entries

  let entries t =
    List.rev (Prefix_trie.fold (fun _ es acc -> List.rev_append es acc) t.trie [])

  let query t q = List.filter (Collect.Query.matches q) (entries t)

  (* the MOASSTOR layout of a roster and entries, in the given order *)
  let encode_entries roster es =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "MOASSTOR";
    Codec.put_u8 buf 1;
    Codec.put_list buf Codec.put_string roster;
    Codec.put_list buf Corr.write_entry es;
    Buffer.to_bytes buf

  let encode t = encode_entries t.roster (entries t)
end

let crc32_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 ?(seed = 0) data ~pos ~len =
  let crc = ref (seed lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc :=
      crc32_table.((!crc lxor Char.code (Bytes.get data i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let take_u16 c =
  let hi = Codec.take_u8 c in
  (hi lsl 8) lor Codec.take_u8 c

let take_u32 c =
  let hi = take_u16 c in
  (hi lsl 16) lor take_u16 c

let take_i63 c =
  let hi = take_u32 c in
  (hi lsl 32) lor take_u32 c

module Int_map = Map.Make (Int)

let merge_snapshots = function
  | [] -> invalid_arg "Oracles.merge_snapshots: empty list"
  | first :: _ as snaps ->
    let open Monitor in
    let counters =
      List.fold_left
        (fun a { s_counters = b; _ } ->
          {
            c_updates = a.c_updates + b.c_updates;
            c_announces = a.c_announces + b.c_announces;
            c_withdraws = a.c_withdraws + b.c_withdraws;
            c_opened = a.c_opened + b.c_opened;
            c_closed = a.c_closed + b.c_closed;
            c_alerts = a.c_alerts + b.c_alerts;
            c_days = max a.c_days b.c_days;
          })
        zero_counters snaps
    in
    let last_time =
      List.fold_left (fun acc s -> max acc s.s_last_time) 0 snaps
    in
    let prefixes =
      List.concat_map (fun s -> s.s_prefixes) snaps
      |> List.sort (fun a b -> Prefix.compare a.p_prefix b.p_prefix)
    in
    let closed =
      List.concat_map (fun s -> s.s_closed) snaps |> List.sort compare_episode
    in
    let windows =
      List.fold_left
        (fun m s ->
          List.fold_left
            (fun m (idx, w) ->
              Int_map.update idx
                (function
                  | None -> Some w
                  | Some prev ->
                    Some
                      {
                        w_updates = prev.w_updates + w.w_updates;
                        w_opened = prev.w_opened + w.w_opened;
                        w_closed = prev.w_closed + w.w_closed;
                        w_alerts = prev.w_alerts + w.w_alerts;
                      })
                m)
            m s.s_windows)
        Int_map.empty snaps
    in
    {
      s_config = first.s_config;
      s_counters = counters;
      s_last_time = last_time;
      s_prefixes = prefixes;
      s_closed = closed;
      s_windows = Int_map.bindings windows;
    }
