(* Tests for lib/stream: online monitor state machine, episode lifecycle,
   MOAS-list validation at settle points, sharded ingest determinism,
   checkpoint/restore, and agreement with the snapshot-based
   Measurement.Moas_cases analysis on the same synthetic archive. *)

open Net
module M = Stream.Monitor
module Sh = Stream.Sharded
module Ck = Stream.Checkpoint
module Src = Stream.Source
module Rp = Stream.Report
module Srv = Measurement.Synthetic_routeviews
module Mc = Measurement.Moas_cases

let p1 = Prefix.of_string "192.0.2.0/24"
let day = M.default_config.M.day_seconds

let ev ?(peer = 99) ~time prefix action =
  { M.time; peer = Asn.make peer; prefix; action }

let ann ?list o =
  M.Announce { origin = Asn.make o; moas_list = Option.map Asn.Set.of_list list }

let wd o = M.Withdraw { origin = Asn.make o }

let annotate = Src.trusted_annotator ~distrusted:Srv.fault_ases ()

(* ---------------- episode lifecycle ---------------- *)

let test_lifecycle () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10; 20 ] 10));
  Alcotest.(check int) "single origin, no episode" 0 (M.open_count m);
  M.ingest m (ev ~time:10 p1 (ann ~list:[ 10; 20 ] 20));
  Alcotest.(check int) "episode opens on second origin" 1 (M.open_count m);
  M.mark_day m ~time:day;
  M.ingest m (ev ~time:(day + 100) p1 (wd 20));
  Alcotest.(check int) "episode closes on withdrawal" 0 (M.open_count m);
  let sn = M.snapshot m in
  (match sn.M.s_closed with
  | [ e ] ->
    Alcotest.(check int) "one conflicted day" 1 e.M.e_days;
    Alcotest.(check int) "first episode of the prefix" 1 e.M.e_seq;
    Alcotest.(check int) "started when the set grew" 10 e.M.e_started;
    Alcotest.(check int) "ended at the withdrawal" (day + 100) e.M.e_ended;
    Alcotest.(check int) "largest origin set" 2 e.M.e_max_origins;
    Alcotest.(check bool) "validated by consistent lists" true e.M.e_clean;
    Alcotest.check Testutil.asn_set_testable "origins ever"
      (Asn.Set.of_list [ 10; 20 ])
      e.M.e_origins_ever
  | eps -> Alcotest.failf "expected 1 closed episode, got %d" (List.length eps));
  let c = sn.M.s_counters in
  Alcotest.(check int) "updates" 3 c.M.c_updates;
  Alcotest.(check int) "announces" 2 c.M.c_announces;
  Alcotest.(check int) "withdraws" 1 c.M.c_withdraws;
  Alcotest.(check int) "opened" 1 c.M.c_opened;
  Alcotest.(check int) "closed" 1 c.M.c_closed;
  Alcotest.(check int) "no alerts: lists agreed" 0 c.M.c_alerts;
  Alcotest.(check int) "days observed" 1 c.M.c_days

let test_validation_flags () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:0 p1 (ann ~list:[ 10; 20 ] 10));
  M.ingest m (ev ~time:1 p1 (ann 20));
  (* the conflict exists but validation waits for the settle point *)
  Alcotest.(check int) "open before settle" 1 (M.open_count m);
  let before = (M.snapshot m).M.s_counters.M.c_alerts in
  Alcotest.(check int) "no alert before settle" 0 before;
  M.settle m ~time:2;
  let sn = M.snapshot m in
  Alcotest.(check int) "one alert after settle" 1 sn.M.s_counters.M.c_alerts;
  (match sn.M.s_prefixes with
  | [ p ] ->
    (match p.M.p_open with
    | Some o -> Alcotest.(check bool) "episode flagged" false o.M.o_clean
    | None -> Alcotest.fail "episode vanished")
  | _ -> Alcotest.fail "expected one prefix state");
  (* a flagged episode never alerts twice *)
  M.ingest m (ev ~time:3 p1 (ann 30));
  M.settle m ~time:4;
  Alcotest.(check int) "still one alert" 1
    (M.snapshot m).M.s_counters.M.c_alerts

let test_recurrence () =
  let m = M.create M.default_config in
  let conflict t =
    M.ingest m (ev ~time:t p1 (ann ~list:[ 10; 20 ] 10));
    M.ingest m (ev ~time:(t + 1) p1 (ann ~list:[ 10; 20 ] 20));
    M.mark_day m ~time:(t + day);
    M.ingest m (ev ~time:(t + day + 1) p1 (wd 20))
  in
  conflict 0;
  conflict (10 * day);
  let sn = M.snapshot m in
  Alcotest.(check (list int)) "recurrence indices" [ 1; 2 ]
    (List.map (fun e -> e.M.e_seq) sn.M.s_closed);
  (match sn.M.s_prefixes with
  | [ p ] -> Alcotest.(check int) "closed count" 2 p.M.p_closed_count
  | _ -> Alcotest.fail "expected one prefix state");
  Testutil.check_contains ~what:"report" (Rp.render sn)
    "1 prefixes conflicted more than once"

let test_origins_validated () =
  let map entries =
    List.fold_left
      (fun acc (o, l) ->
        Asn.Map.add (Asn.make o) (Option.map Asn.Set.of_list l) acc)
      Asn.Map.empty entries
  in
  let check name expected entries =
    Alcotest.(check bool) name expected (M.origins_validated (map entries))
  in
  check "no origins" true [];
  check "single origin, no list" true [ (10, None) ];
  check "consistent covering lists" true
    [ (10, Some [ 10; 20 ]); (20, Some [ 10; 20 ]) ];
  check "superset lists still cover" true
    [ (10, Some [ 10; 20; 30 ]); (20, Some [ 10; 20; 30 ]) ];
  check "one origin without a list" false
    [ (10, Some [ 10; 20 ]); (20, None) ];
  check "disagreeing lists" false
    [ (10, Some [ 10; 20 ]); (20, Some [ 10; 30 ]) ];
  check "agreed list missing an origin" false
    [ (10, Some [ 10 ]); (20, Some [ 10 ]) ]

let test_windows () =
  let m = M.create M.default_config in
  M.ingest m (ev ~time:100 p1 (ann 10));
  M.ingest m (ev ~time:200 p1 (ann 20));
  M.settle m ~time:300;
  M.ingest m (ev ~time:((5 * day) + 1) p1 (wd 20));
  let sn = M.snapshot m in
  Alcotest.(check (list int)) "window indices" [ 0; 5 ]
    (List.map fst sn.M.s_windows);
  let sum f =
    List.fold_left (fun acc (_, w) -> acc + f w) 0 sn.M.s_windows
  in
  let c = sn.M.s_counters in
  Alcotest.(check int) "updates windowed" c.M.c_updates (sum (fun w -> w.M.w_updates));
  Alcotest.(check int) "opens windowed" c.M.c_opened (sum (fun w -> w.M.w_opened));
  Alcotest.(check int) "closes windowed" c.M.c_closed (sum (fun w -> w.M.w_closed));
  Alcotest.(check int) "alerts windowed" c.M.c_alerts (sum (fun w -> w.M.w_alerts))

let test_config_validation () =
  List.iter
    (fun (name, cfg) ->
      match M.create cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ("zero window", { M.default_config with M.window = 0 });
      ( "inverted buckets",
        { M.default_config with M.short_max_days = 9; medium_max_days = 3 } );
      ("zero day", { M.default_config with M.day_seconds = 0 });
    ]

(* ---------------- the archive as a stream ---------------- *)

let archive_monitor ?metrics ~jobs () =
  let t = Sh.create ?metrics ~jobs M.default_config in
  Array.iter
    (fun b -> Sh.ingest_batch ~day_end:true t ~time:b.Src.time b.Src.events)
    (Src.archive_batches ~annotate Srv.smoke_params);
  t

let test_sharding_invariance () =
  let r1 = Rp.render (Sh.snapshot (archive_monitor ~jobs:1 ())) in
  let r4 = Rp.render (Sh.snapshot (archive_monitor ~jobs:4 ())) in
  Alcotest.(check string) "reports identical at jobs 1 and 4" r1 r4

(* The archive as a firehose: every event repeated as four replicas, cut
   in time order into batches of at least [Sh.parallel_threshold] events
   so that ingest at jobs > 1 goes through the domain pool rather than
   inline.  Replica [r] lengthens the mask by [r] (lengths the archive
   never uses), so the replicas stay distinct prefixes and the batches
   hold four times the archive's events. *)
let firehose_batches () =
  let replicas = 4 in
  let events =
    Src.archive_batches ~annotate Srv.smoke_params
    |> Array.to_list
    |> List.concat_map (fun b ->
           List.concat_map
             (fun e ->
               let p = e.M.prefix in
               List.init replicas (fun r ->
                   {
                     e with
                     M.prefix = Prefix.make (Prefix.network p) (Prefix.length p + r);
                   }))
             (Array.to_list b.Src.events))
    |> Array.of_list
  in
  let size = Sh.parallel_threshold in
  let n = Array.length events / size in
  List.init n (fun i ->
      let lo = i * size in
      let hi = if i = n - 1 then Array.length events else lo + size in
      Array.sub events lo (hi - lo))

let test_pool_branch_invariance () =
  let batches = firehose_batches () in
  Alcotest.(check bool) "firehose has batches" true (batches <> []);
  List.iter
    (fun events ->
      Alcotest.(check bool) "batch reaches the pool threshold" true
        (Array.length events >= Sh.parallel_threshold))
    batches;
  let run jobs =
    let t = Sh.create ~jobs M.default_config in
    List.iter
      (fun events ->
        Sh.ingest_batch t ~time:events.(Array.length events - 1).M.time events)
      batches;
    let sn = Sh.snapshot t in
    (Rp.render sn, Ck.encode sn)
  in
  let r1, c1 = run 1 in
  let r4, c4 = run 4 in
  Alcotest.(check string) "reports identical at jobs 1 and 4" r1 r4;
  Alcotest.(check bool) "checkpoint bytes identical at jobs 1 and 4" true
    (Bytes.equal c1 c4)

(* Every shard must own a real share of the archive: at least half of an
   even split.  A shard hash that is linear in the network address sends
   all of the archive's zero-low-octet /16s and /24s to shard 0, which
   keeps the output jobs-invariant but leaves the other shards idle.

   Each shard's prefixes must also keep the spread of their home slots in
   the shard's own interner, whose slot is [Intern.hash key land mask]:
   every residue of the low three bits is used and none holds more than
   half of the shard's keys.  A shard function read from any bits of
   [Intern.hash] fails this: the low bits give every key of shard [s] a
   slot congruent to [s] modulo [jobs], and since the hash folds bits 31
   and up into the low ones, the high bits tie the slot as well (on the
   archive, [lsr 32] leaves shard 0 of two without a single home slot =
   2 mod 8).  Either way the shard's table clusters its probes. *)
let test_shard_spread () =
  let prefixes = Hashtbl.create 1024 in
  Array.iter
    (fun b -> Array.iter (fun e -> Hashtbl.replace prefixes e.M.prefix ()) b.Src.events)
    (Src.archive_batches ~annotate Srv.smoke_params);
  let n = Hashtbl.length prefixes in
  List.iter
    (fun jobs ->
      let t = Sh.create ~jobs M.default_config in
      let counts = Array.make jobs 0 in
      let homes = Array.make_matrix jobs 8 0 in
      Hashtbl.iter
        (fun p () ->
          let s = Sh.shard_of t p in
          Alcotest.(check bool) "shard in range" true (s >= 0 && s < jobs);
          counts.(s) <- counts.(s) + 1;
          let r = Intern.hash (Prefix.to_key p) land 7 in
          homes.(s).(r) <- homes.(s).(r) + 1)
        prefixes;
      Array.iteri
        (fun s c ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: shard %d owns %d of %d prefixes" jobs s c n)
            true
            (2 * jobs * c >= n);
          Array.iteri
            (fun r h ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d: shard %d has %d of %d home slots = %d mod 8"
                   jobs s h c r)
                true
                (h > 0 && 2 * h <= c))
            homes.(s))
        counts)
    [ 2; 3; 4; 8 ]

(* the merge diff replays exactly the batches of the Prefix.Map diff *)
let test_archive_matches_map_diff () =
  List.iter
    (fun k ->
      let params =
        { Srv.smoke_params with Srv.seed = Int64.add Srv.smoke_params.Srv.seed k }
      in
      let fast = Src.archive_batches ~annotate params in
      let slow = Oracles.archive_batches ~annotate params in
      Alcotest.(check int)
        (Printf.sprintf "seed +%Ld: batch count" k)
        (Array.length slow) (Array.length fast);
      Array.iter2
        (fun (a : Src.batch) (b : Src.batch) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed +%Ld: batch at %d" k b.Src.time)
            true
            (a.Src.time = b.Src.time
            && Option.equal Int.equal a.Src.day b.Src.day
            && Array.length a.Src.events = Array.length b.Src.events
            && Array.for_all2
                 (fun x y -> Collect.Mesh.compare_event x y = 0)
                 a.Src.events b.Src.events))
        fast slow)
    [ 0L; 1L; 2L ]

let test_alerts_spike_on_fault_days () =
  let sn = Sh.snapshot (archive_monitor ~jobs:2 ()) in
  let alert_days =
    List.filter_map
      (fun (i, w) -> if w.M.w_alerts > 0 then Some i else None)
      sn.M.s_windows
  in
  Alcotest.(check (list int)) "alerts exactly on the fault days"
    [ Srv.event_1998; Srv.event_2001 ]
    alert_days;
  let alerts_on d =
    match List.assoc_opt d sn.M.s_windows with
    | Some w -> w.M.w_alerts
    | None -> 0
  in
  Alcotest.(check int) "1998 event size" Srv.smoke_params.Srv.event_1998_size
    (alerts_on Srv.event_1998);
  Alcotest.(check int) "2001 event size" Srv.smoke_params.Srv.event_2001_size
    (alerts_on Srv.event_2001)

let test_archive_agrees_with_moas_cases () =
  (* the online monitor and the snapshot-based Section 3 analysis must
     count the same conflicted days over the same archive *)
  let sn = Sh.snapshot (archive_monitor ~jobs:3 ()) in
  let summary =
    Mc.finalize
      (Srv.fold_dumps Srv.smoke_params ~init:Mc.empty ~f:(fun acc d ->
           Mc.ingest acc ~day:d.Srv.day d.Srv.table))
  in
  Alcotest.(check int) "observed days" summary.Mc.observed_day_count
    sn.M.s_counters.M.c_days;
  (* accumulate per-prefix (days, origins, max) over closed + open episodes *)
  let tbl = Hashtbl.create 256 in
  let add prefix days origins max_o =
    let d0, o0, m0 =
      Option.value ~default:(0, Asn.Set.empty, 0)
        (Hashtbl.find_opt tbl prefix)
    in
    Hashtbl.replace tbl prefix
      (d0 + days, Asn.Set.union o0 origins, max m0 max_o)
  in
  List.iter
    (fun e -> add e.M.e_prefix e.M.e_days e.M.e_origins_ever e.M.e_max_origins)
    sn.M.s_closed;
  List.iter
    (fun p ->
      match p.M.p_open with
      | Some o -> add p.M.p_prefix o.M.o_days o.M.o_origins_ever o.M.o_max_origins
      | None -> ())
    sn.M.s_prefixes;
  Alcotest.(check int) "same number of conflicted prefixes"
    (List.length summary.Mc.cases) (Hashtbl.length tbl);
  List.iter
    (fun (case : Mc.case) ->
      match Hashtbl.find_opt tbl case.Mc.prefix with
      | None ->
        Alcotest.failf "case %s missing from the stream monitor"
          (Prefix.to_string case.Mc.prefix)
      | Some (days, origins, max_o) ->
        Alcotest.(check int)
          (Printf.sprintf "days for %s" (Prefix.to_string case.Mc.prefix))
          case.Mc.moas_days days;
        Alcotest.check Testutil.asn_set_testable
          (Printf.sprintf "origins for %s" (Prefix.to_string case.Mc.prefix))
          case.Mc.origins_ever origins;
        Alcotest.(check int)
          (Printf.sprintf "max origins for %s" (Prefix.to_string case.Mc.prefix))
          case.Mc.max_origins max_o)
    summary.Mc.cases

let test_metrics_flow () =
  let metrics = Obs.Registry.create () in
  let t = archive_monitor ~metrics ~jobs:2 () in
  let merged = Sh.metrics t in
  let v name = Obs.Registry.counter_value merged name in
  Alcotest.(check int) "updates counter" (Sh.update_count t)
    (v "stream_updates_total");
  Alcotest.(check int) "announce + withdraw split" (Sh.update_count t)
    (v "stream_announces_total" + v "stream_withdraws_total");
  Alcotest.(check int) "days counter" (Sh.day_count t) (v "stream_days_total");
  Alcotest.(check int) "batches counter" (Sh.day_count t)
    (v "stream_batches_total");
  let sn = Sh.snapshot t in
  Alcotest.(check int) "opened counter" sn.M.s_counters.M.c_opened
    (v "stream_episodes_opened_total");
  Alcotest.(check int) "alerts counter" sn.M.s_counters.M.c_alerts
    (v "stream_alerts_total")

(* ---------------- checkpoint/restore ---------------- *)

let test_checkpoint_roundtrip () =
  let sn = Sh.snapshot (archive_monitor ~jobs:2 ()) in
  let bytes = Ck.encode sn in
  let sn2 = Ck.decode bytes in
  Alcotest.(check string) "render survives the roundtrip" (Rp.render sn)
    (Rp.render sn2);
  Alcotest.(check bool) "re-encoding is byte-identical" true
    (Bytes.equal bytes (Ck.encode sn2))

let test_checkpoint_empty () =
  let sn = M.empty_snapshot M.default_config in
  Alcotest.(check string) "empty snapshot roundtrips"
    (Rp.render sn)
    (Rp.render (Ck.decode (Ck.encode sn)))

let test_checkpoint_rejects_corruption () =
  let bytes = Ck.encode (Sh.snapshot (archive_monitor ~jobs:1 ())) in
  let expect name b =
    match Ck.decode b with
    | exception Ck.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect "truncated" (Bytes.sub bytes 0 (Bytes.length bytes - 3));
  expect "trailing octets" (Bytes.cat bytes (Bytes.make 1 '\x00'));
  let bad_magic = Bytes.copy bytes in
  Bytes.set bad_magic 0 'X';
  expect "bad magic" bad_magic;
  let bad_version = Bytes.copy bytes in
  Bytes.set bad_version 8 '\x09';
  expect "unknown version" bad_version;
  expect "empty" Bytes.empty

let test_checkpoint_restore_converges () =
  (* checkpoint mid-stream at one job count, restore at another, replay
     the rest: the final report equals the uninterrupted run's *)
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let split = Array.length batches / 2 in
  let t = Sh.create ~jobs:2 M.default_config in
  Array.iteri
    (fun i b ->
      if i < split then
        Sh.ingest_batch ~day_end:true t ~time:b.Src.time b.Src.events)
    batches;
  let bytes = Ck.encode (Sh.snapshot t) in
  let snap = Ck.decode bytes in
  let resumed = Sh.of_snapshot ~jobs:3 snap in
  Array.iter
    (fun b ->
      if b.Src.time > snap.M.s_last_time then
        Sh.ingest_batch ~day_end:true resumed ~time:b.Src.time b.Src.events)
    batches;
  let uninterrupted = Rp.render (Sh.snapshot (archive_monitor ~jobs:1 ())) in
  Alcotest.(check string) "resumed run converges" uninterrupted
    (Rp.render (Sh.snapshot resumed))

let test_restore_recredits_metrics () =
  let sn = Sh.snapshot (archive_monitor ~jobs:2 ()) in
  let metrics = Obs.Registry.create () in
  let restored = Sh.of_snapshot ~metrics ~jobs:2 sn in
  Alcotest.(check int) "restored update counter"
    sn.M.s_counters.M.c_updates
    (Obs.Registry.counter_value (Sh.metrics restored) "stream_updates_total")

(* ---------------- other sources ---------------- *)

let test_of_mrt () =
  let records =
    [
      {
        Measurement.Mrt.timestamp = 100;
        peer_as = Asn.make 4;
        prefix = p1;
        as_path = Bgp.As_path.of_list [ 4; 7 ];
      };
      {
        Measurement.Mrt.timestamp = 200;
        peer_as = Asn.make 5;
        prefix = p1;
        as_path = Bgp.As_path.of_list [ 5 ];
      };
    ]
  in
  let batch = Src.of_mrt (Measurement.Mrt.encode_records records) in
  Alcotest.(check int) "batch time = latest record" 200 batch.Src.time;
  Alcotest.(check int) "one event per record" 2 (Array.length batch.Src.events);
  match batch.Src.events.(0).M.action with
  | M.Announce { origin; _ } ->
    Alcotest.(check int) "origin = path tail" 7 (Asn.to_int origin)
  | M.Withdraw _ -> Alcotest.fail "MRT records are announcements"

let test_of_wire () =
  let message =
    {
      Bgp.Wire.withdrawn = [ Prefix.of_string "10.0.0.0/8" ];
      attributes =
        Some
          {
            Bgp.Wire.origin = Bgp.Route.Igp;
            as_path = Bgp.As_path.of_list [ 9; 4 ];
            local_pref = 100;
            communities = Moas.Moas_list.encode (Asn.Set.of_list [ 4; 226 ]);
          };
      nlri = [ p1 ];
    }
  in
  let events = Src.of_wire ~time:7 ~peer:(Asn.make 9) message in
  Alcotest.(check int) "withdraw + announce" 2 (Array.length events);
  (match events.(0).M.action with
  | M.Withdraw { origin } ->
    Alcotest.(check int) "withdraw attributed to the peer" 9 (Asn.to_int origin)
  | M.Announce _ -> Alcotest.fail "withdrawals come first");
  match events.(1).M.action with
  | M.Announce { origin; moas_list } ->
    Alcotest.(check int) "origin from the path tail" 4 (Asn.to_int origin);
    Alcotest.check
      (Alcotest.option Testutil.asn_set_testable)
      "MOAS list decoded from communities"
      (Some (Asn.Set.of_list [ 4; 226 ]))
      moas_list
  | M.Withdraw _ -> Alcotest.fail "announcement lost"

(* ---------------- the uniform pull interface ---------------- *)

let batch_signature b =
  ( b.Src.time,
    Option.map Mutil.Day.to_string b.Src.day,
    Array.map (fun e -> (e.M.time, Prefix.to_string e.M.prefix)) b.Src.events )

let test_source_pull_equals_fold () =
  (* draining the pull source yields exactly the fold_archive batches *)
  let folded =
    List.rev
      (Src.fold_archive ~annotate Srv.smoke_params ~init:[] ~f:(fun acc b ->
           b :: acc))
  in
  let s = Src.of_archive ~annotate Srv.smoke_params in
  let pulled = List.rev (Src.fold s ~init:[] ~f:(fun acc b -> b :: acc)) in
  Alcotest.(check int) "same batch count" (List.length folded)
    (List.length pulled);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same batch" true
        (batch_signature a = batch_signature b))
    folded pulled;
  Alcotest.(check bool) "exhausted after fold" true (Src.next s = None)

let test_source_close_is_final () =
  let s = Src.of_batches (Src.archive_batches ~annotate Srv.smoke_params) in
  Alcotest.(check bool) "first pull succeeds" true (Src.next s <> None);
  Src.close s;
  Src.close s;
  Alcotest.(check bool) "closed source yields nothing" true (Src.next s = None)

let test_ingest_source_equals_batch_loop () =
  (* the single ingestion entry point converges with the manual loop,
     including when the drain is split by max_batches *)
  let t = Sh.create ~jobs:2 M.default_config in
  let s = Src.of_archive ~annotate Srv.smoke_params in
  let first = Sh.ingest_source ~max_batches:3 t s in
  Alcotest.(check int) "max_batches honoured" 3 first;
  let rest = Sh.ingest_source t s in
  Alcotest.(check int) "the whole archive ingested" (Sh.day_count t)
    (first + rest);
  Alcotest.(check string) "converges with the batch loop"
    (Rp.render (Sh.snapshot (archive_monitor ~jobs:2 ())))
    (Rp.render (Sh.snapshot t))

let test_ingest_source_since_skips () =
  (* resume semantics: batches at or before `since` are skipped, matching
     what a checkpoint restore needs *)
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let split_time = batches.(Array.length batches / 2).Src.time in
  let t = Sh.create ~jobs:1 M.default_config in
  let skipped =
    Sh.ingest_source ~since:split_time t (Src.of_batches batches)
  in
  let expected =
    Array.length (Array.of_list (List.filter (fun b -> b.Src.time > split_time) (Array.to_list batches)))
  in
  Alcotest.(check int) "only later batches ingested" expected skipped

exception Boom

let test_ingest_source_closes_on_failure () =
  (* a failing pull must not leak the source: ingest_source closes it
     before the exception escapes, and the monitor stops exactly at the
     last completed batch *)
  let batches = Src.archive_batches ~annotate Srv.smoke_params in
  let keep = 3 in
  let rec seq n bs () =
    if n = 0 then raise Boom
    else
      match bs with
      | [] -> Seq.Nil
      | b :: tl -> Seq.Cons (b, seq (n - 1) tl)
  in
  let s = Src.of_seq (seq keep (Array.to_list batches)) in
  let t = Sh.create ~jobs:1 M.default_config in
  (match Sh.ingest_source t s with
  | _ -> Alcotest.fail "the source failure was swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "batches before the failure are ingested" keep
    (Sh.day_count t);
  Alcotest.(check bool) "the failed source was closed" true (Src.next s = None)

(* ---------------- qcheck properties ---------------- *)

let script_prefixes =
  [|
    Prefix.of_string "10.0.0.0/8";
    Prefix.of_string "192.0.2.0/24";
    Prefix.of_string "198.51.100.0/24";
    Prefix.of_string "203.0.113.0/24";
  |]

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 150)
      (triple (int_range 0 3) (int_range 1 6) (int_range 0 3)))

let act o = function
  | 0 -> wd o
  | 1 -> ann o
  | 2 -> ann ~list:[ 1; 2; 3; 4; 5; 6 ] o
  | _ -> ann ~list:[ o ] o

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k = function
      | x :: tl when k > 0 ->
        let a, b = take (k - 1) tl in
        (x :: a, b)
      | rest -> ([], rest)
    in
    let a, b = take n l in
    a :: chunk n b

let feed_sharded jobs script =
  let t = Sh.create ~jobs M.default_config in
  let events =
    List.mapi
      (fun i (pi, o, k) -> ev ~time:(i * 1000) script_prefixes.(pi) (act o k))
      script
  in
  List.iter
    (fun batch ->
      let arr = Array.of_list batch in
      let time = arr.(Array.length arr - 1).M.time in
      Sh.ingest_batch ~day_end:true t ~time arr)
    (chunk 10 events);
  t

let prop_episode_invariants =
  Testutil.qtest ~count:150 "episode invariants on random streams" script_gen
    (fun script ->
      let sn = Sh.snapshot (feed_sharded 1 script) in
      let c = sn.M.s_counters in
      let opens =
        List.length (List.filter (fun p -> p.M.p_open <> None) sn.M.s_prefixes)
      in
      let per_prefix = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let l = Option.value ~default:[] (Hashtbl.find_opt per_prefix e.M.e_prefix) in
          Hashtbl.replace per_prefix e.M.e_prefix (l @ [ e ]))
        sn.M.s_closed;
      let prefix_ok (p : M.prefix_state) =
        let closed = Option.value ~default:[] (Hashtbl.find_opt per_prefix p.M.p_prefix) in
        (* recurrence indices are consecutive from 1, episodes never
           overlap, and every close follows its open *)
        List.length closed = p.M.p_closed_count
        && List.for_all2
             (fun e i -> e.M.e_seq = i)
             closed
             (List.init (List.length closed) (fun i -> i + 1))
        && List.for_all (fun e -> e.M.e_ended >= e.M.e_started && e.M.e_days <= c.M.c_days) closed
        && (let rec no_overlap = function
              | a :: (b :: _ as tl) -> a.M.e_ended <= b.M.e_started && no_overlap tl
              | _ -> true
            in
            no_overlap closed)
        && match p.M.p_open with
           | Some o -> o.M.o_seq = p.M.p_closed_count + 1
           | None -> true
      in
      let sum f = List.fold_left (fun acc (_, w) -> acc + f w) 0 sn.M.s_windows in
      c.M.c_opened = c.M.c_closed + opens
      && c.M.c_closed = List.length sn.M.s_closed
      && List.for_all prefix_ok sn.M.s_prefixes
      && sum (fun w -> w.M.w_updates) = c.M.c_updates
      && sum (fun w -> w.M.w_opened) = c.M.c_opened
      && sum (fun w -> w.M.w_closed) = c.M.c_closed
      && sum (fun w -> w.M.w_alerts) = c.M.c_alerts)

let prop_jobs_invariance =
  Testutil.qtest ~count:60 "sharded ingest is jobs-invariant" script_gen
    (fun script ->
      String.equal
        (Rp.render (Sh.snapshot (feed_sharded 1 script)))
        (Rp.render (Sh.snapshot (feed_sharded 3 script))))

let prop_checkpoint_roundtrip =
  Testutil.qtest ~count:60 "checkpoint roundtrips on random streams" script_gen
    (fun script ->
      let sn = Sh.snapshot (feed_sharded 2 script) in
      let bytes = Ck.encode sn in
      let sn2 = Ck.decode bytes in
      Bytes.equal bytes (Ck.encode sn2)
      && String.equal (Rp.render sn) (Rp.render sn2))

(* Prefix ids are an in-memory handle: a monitor rebuilt from a snapshot
   re-interns in snapshot order, not first-announce order, so resuming
   from a mid-stream checkpoint must be invisible in every later output. *)
let prop_restore_midstream =
  Testutil.qtest ~count:60 "mid-stream restore is invisible"
    (QCheck2.Gen.pair script_gen script_gen)
    (fun (s1, s2) ->
      let events_at off s =
        List.mapi
          (fun i (pi, o, k) -> ev ~time:((off + i) * 1000) script_prefixes.(pi) (act o k))
          s
      in
      let evs1 = events_at 0 s1 and evs2 = events_at (List.length s1) s2 in
      let t_mid = List.length s1 * 1000 in
      let t_end = (List.length s1 + List.length s2) * 1000 in
      let run resume =
        let m = M.create M.default_config in
        List.iter (M.ingest m) evs1;
        M.settle m ~time:t_mid;
        let m = if resume then M.restore (M.snapshot m) else m in
        List.iter (M.ingest m) evs2;
        M.settle m ~time:t_end;
        Ck.encode (M.snapshot m)
      in
      Bytes.equal (run false) (run true))

(* ---------------- day counts ---------------- *)

(* Batches over eight prefixes, each batch possibly ending an observed
   day.  Eight prefixes land on every shard at jobs 2 and 3. *)
let day_prefixes =
  Array.init 8 (fun i -> Prefix.of_string (Printf.sprintf "10.%d.0.0/16" (i * 31)))

let day_script_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (pair
         (list_size (int_range 0 12)
            (triple (int_range 0 7) (int_range 1 5) (int_range 0 3)))
         bool))

let day_batches script =
  List.mapi
    (fun i (evs, day_end) ->
      let time = (i + 1) * 1000 in
      ( Array.of_list
          (List.map (fun (pi, o, k) -> ev ~time day_prefixes.(pi) (act o k)) evs),
        day_end,
        time ))
    script

(* The day-count oracle: an independent per-prefix model of the origin
   set, in which a conflict is open while two or more origins announce
   and every day mark that falls while it is open counts one day.
   Returns (prefix, seq, days, still open), sorted. *)
let model_days batches =
  let st = Hashtbl.create 8 in
  let get p =
    match Hashtbl.find_opt st p with
    | Some x -> x
    | None ->
      let x = (ref Asn.Set.empty, ref None, ref 0) in
      Hashtbl.replace st p x;
      x
  in
  let out = ref [] in
  List.iter
    (fun (events, day_end, _) ->
      Array.iter
        (fun e ->
          let origins, opened, closed = get e.M.prefix in
          match e.M.action with
          | M.Announce { origin; _ } ->
            origins := Asn.Set.add origin !origins;
            if !opened = None && Asn.Set.cardinal !origins > 1 then
              opened := Some (!closed + 1, 0)
          | M.Withdraw { origin } -> (
            origins := Asn.Set.remove origin !origins;
            match !opened with
            | Some (seq, days) when Asn.Set.cardinal !origins <= 1 ->
              out := (Prefix.to_string e.M.prefix, seq, days, false) :: !out;
              opened := None;
              incr closed
            | _ -> ()))
        events;
      if day_end then
        Hashtbl.iter
          (fun _ (_, opened, _) ->
            Option.iter (fun (seq, days) -> opened := Some (seq, days + 1)) !opened)
          st)
    batches;
  Hashtbl.iter
    (fun p (_, opened, _) ->
      Option.iter
        (fun (seq, days) -> out := (Prefix.to_string p, seq, days, true) :: !out)
        !opened)
    st;
  List.sort compare !out

let snapshot_days (sn : M.snapshot) =
  List.sort compare
    (List.map
       (fun e -> (Prefix.to_string e.M.e_prefix, e.M.e_seq, e.M.e_days, false))
       sn.M.s_closed
    @ List.filter_map
        (fun p ->
          Option.map
            (fun o -> (Prefix.to_string p.M.p_prefix, o.M.o_seq, o.M.o_days, true))
            p.M.p_open)
        sn.M.s_prefixes)

let feed t batches =
  List.iter (fun (events, day_end, time) -> Sh.ingest_batch ~day_end t ~time events) batches

(* [jobs] for the first [split] batches, then a checkpoint round trip and
   [resume_jobs] for the rest *)
let run_days ~jobs ?resume_jobs ?(split = 0) batches =
  let first = List.filteri (fun i _ -> i < split) batches in
  let rest = List.filteri (fun i _ -> i >= split) batches in
  let t = Sh.create ~jobs M.default_config in
  feed t first;
  let t =
    match resume_jobs with
    | None -> t
    | Some j -> Sh.of_snapshot ~jobs:j (Ck.decode (Ck.encode (Sh.snapshot t)))
  in
  feed t rest;
  Sh.snapshot t

let prop_day_counts =
  Testutil.qtest ~count:150 "day counts equal the per-prefix model"
    QCheck2.Gen.(pair day_script_gen (int_range 0 40))
    (fun (script, split) ->
      let batches = day_batches script in
      let expected = model_days batches in
      let marks = List.length (List.filter (fun (_, d, _) -> d) batches) in
      List.for_all
        (fun (jobs, resume_jobs) ->
          let sn = run_days ~jobs ?resume_jobs ~split batches in
          snapshot_days sn = expected && sn.M.s_counters.M.c_days = marks)
        [ (1, None); (3, None); (1, Some 3); (3, Some 1); (2, Some 2) ])

(* the linear merge of sorted shard snapshots equals the concatenate-and-
   sort oracle, for any split of the prefixes over shards *)
let prop_merge_equals_sort =
  Testutil.qtest ~count:150 "linear snapshot merge equals concat + sort"
    QCheck2.Gen.(pair day_script_gen (int_range 1 5))
    (fun (script, k) ->
      let shards = Array.init k (fun _ -> M.create M.default_config) in
      List.iter
        (fun (events, day_end, time) ->
          Array.iter (fun e -> M.ingest shards.(Hashtbl.hash e.M.prefix mod k) e) events;
          Array.iter
            (fun m -> if day_end then M.mark_day m ~time else M.settle m ~time)
            shards)
        (day_batches script);
      let snaps = Array.to_list (Array.map M.snapshot shards) in
      let fast = M.merge_snapshots snaps and slow = Oracles.merge_snapshots snaps in
      fast = slow && Bytes.equal (Ck.encode fast) (Ck.encode slow))

let () =
  Alcotest.run "stream"
    [
      ( "monitor",
        [
          Alcotest.test_case "episode lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "validation at settle points" `Quick
            test_validation_flags;
          Alcotest.test_case "recurrence" `Quick test_recurrence;
          Alcotest.test_case "origins_validated predicate" `Quick
            test_origins_validated;
          Alcotest.test_case "window aggregation" `Quick test_windows;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "archive",
        [
          Alcotest.test_case "sharding invariance" `Quick
            test_sharding_invariance;
          Alcotest.test_case "pool-sized batches invariance" `Quick
            test_pool_branch_invariance;
          Alcotest.test_case "shard hash spreads the archive" `Quick
            test_shard_spread;
          Alcotest.test_case "alerts spike on fault days" `Quick
            test_alerts_spike_on_fault_days;
          Alcotest.test_case "agrees with Moas_cases" `Quick
            test_archive_agrees_with_moas_cases;
          Alcotest.test_case "metrics flow" `Quick test_metrics_flow;
          Alcotest.test_case "merge diff equals the map diff" `Quick
            test_archive_matches_map_diff;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "empty snapshot" `Quick test_checkpoint_empty;
          Alcotest.test_case "corruption rejected" `Quick
            test_checkpoint_rejects_corruption;
          Alcotest.test_case "restore converges" `Quick
            test_checkpoint_restore_converges;
          Alcotest.test_case "restore re-credits metrics" `Quick
            test_restore_recredits_metrics;
        ] );
      ( "sources",
        [
          Alcotest.test_case "MRT batches" `Quick test_of_mrt;
          Alcotest.test_case "wire messages" `Quick test_of_wire;
          Alcotest.test_case "pull == fold" `Quick test_source_pull_equals_fold;
          Alcotest.test_case "close is final" `Quick test_source_close_is_final;
          Alcotest.test_case "ingest_source == batch loop" `Quick
            test_ingest_source_equals_batch_loop;
          Alcotest.test_case "ingest_source resume skips" `Quick
            test_ingest_source_since_skips;
          Alcotest.test_case "ingest_source closes a failed source" `Quick
            test_ingest_source_closes_on_failure;
        ] );
      ( "properties",
        [
          prop_episode_invariants;
          prop_jobs_invariance;
          prop_checkpoint_roundtrip;
          prop_restore_midstream;
          prop_day_counts;
          prop_merge_equals_sort;
        ] );
    ]
