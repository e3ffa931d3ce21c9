open Monitor

type episode_view = {
  v_prefix : Net.Prefix.t;
  v_seq : int;
  v_started : int;
  v_ended : int option;
  v_days : int;
  v_max_origins : int;
  v_origins : Net.Asn.Set.t;
  v_clean : bool;
}

let episodes snap =
  let closed =
    List.map
      (fun e ->
        {
          v_prefix = e.e_prefix;
          v_seq = e.e_seq;
          v_started = e.e_started;
          v_ended = Some e.e_ended;
          v_days = e.e_days;
          v_max_origins = e.e_max_origins;
          v_origins = e.e_origins_ever;
          v_clean = e.e_clean;
        })
      snap.s_closed
  in
  let opened =
    List.filter_map
      (fun p ->
        Option.map
          (fun o ->
            {
              v_prefix = p.p_prefix;
              v_seq = o.o_seq;
              v_started = o.o_started;
              v_ended = None;
              v_days = o.o_days;
              v_max_origins = o.o_max_origins;
              v_origins = o.o_origins_ever;
              v_clean = o.o_clean;
            })
          p.p_open)
      snap.s_prefixes
  in
  List.sort
    (fun a b ->
      let c = Net.Prefix.compare a.v_prefix b.v_prefix in
      if c <> 0 then c
      else
        let c = Int.compare a.v_started b.v_started in
        if c <> 0 then c else Int.compare a.v_seq b.v_seq)
    (closed @ opened)

(* the short/medium/long classes live on Monitor.bucket so the query
   layer and the classifier share the exact same boundaries *)
type duration_class = Monitor.bucket = Short | Medium | Long

let classify = Monitor.bucket_of_days
let class_label = Monitor.bucket_label

(* the Figure 5 buckets of Measurement.Moas_cases, on episode day counts *)
let paper_buckets eps =
  let buckets =
    [
      ("1 day", fun d -> d = 1);
      ("2 days", fun d -> d = 2);
      ("3-7 days", fun d -> d >= 3 && d <= 7);
      ("8-30 days", fun d -> d >= 8 && d <= 30);
      ("31-90 days", fun d -> d >= 31 && d <= 90);
      ("91-365 days", fun d -> d >= 91 && d <= 365);
      (">365 days", fun d -> d > 365);
    ]
  in
  List.map
    (fun (label, pred) ->
      (label, List.length (List.filter (fun e -> pred (max 1 e.v_days)) eps)))
    buckets

let day_label cfg time =
  if time mod cfg.day_seconds = 0 && cfg.day_seconds = 86_400 then
    Mutil.Day.to_string (time / cfg.day_seconds)
  else string_of_int time

let window_label cfg idx =
  day_label cfg (idx * cfg.window)

let render ?(top_windows = 5) snap =
  let buf = Buffer.create 4096 in
  let say fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let cfg = snap.s_config in
  let c = snap.s_counters in
  let eps = episodes snap in
  let open_eps = List.filter (fun e -> e.v_ended = None) eps in
  let flagged = List.filter (fun e -> not e.v_clean) eps in
  say "== online MOAS monitor ==";
  say "config: %d s windows; buckets short <= %d d < medium <= %d d < long"
    cfg.window cfg.short_max_days cfg.medium_max_days;
  say "stream: %d updates (%d announces, %d withdraws) over %d observed days"
    c.c_updates c.c_announces c.c_withdraws c.c_days;
  say "        last event at %s" (day_label cfg snap.s_last_time);
  let tracked =
    List.length (List.filter (fun p -> p.p_origins <> []) snap.s_prefixes)
  in
  say "state:  %d prefixes announced, %d in open MOAS conflict" tracked
    (List.length open_eps);
  say
    "episodes: %d total (%d closed, %d open); %d validated by MOAS lists, %d \
     flagged; %d alerts raised"
    (List.length eps) c.c_closed (List.length open_eps)
    (List.length eps - List.length flagged)
    (List.length flagged) c.c_alerts;
  (* recurrence *)
  let recurrent =
    List.filter
      (fun p -> p.p_closed_count + (if p.p_open = None then 0 else 1) > 1)
      snap.s_prefixes
  in
  let max_prefix, max_eps =
    List.fold_left
      (fun (bp, bn) p ->
        let n = p.p_closed_count + if p.p_open = None then 0 else 1 in
        if n > bn then (Some p.p_prefix, n) else (bp, bn))
      (None, 0) snap.s_prefixes
  in
  (match max_prefix with
  | Some prefix when max_eps > 0 ->
    say "recurrence: %d prefixes conflicted more than once; max %d episodes (%s)"
      (List.length recurrent) max_eps
      (Net.Prefix.to_string prefix)
  | _ -> say "recurrence: no prefix has conflicted yet");
  (* duration classes *)
  say "";
  say "-- episode durations (observed days in conflict) --";
  let count cls =
    List.length (List.filter (fun e -> classify cfg e.v_days = cls) eps)
  in
  Buffer.add_string buf
    (Mutil.Text_table.render ~header:[ "class"; "episodes" ]
       (List.map
          (fun cls -> [ class_label cls; string_of_int (count cls) ])
          [ Monitor.Short; Monitor.Medium; Monitor.Long ]));
  say "";
  say "-- paper duration buckets (Figure 5) --";
  Buffer.add_string buf
    (Mutil.Text_table.render ~header:[ "duration"; "episodes" ]
       (List.map
          (fun (label, n) -> [ label; string_of_int n ])
          (paper_buckets eps)));
  (* alert windows *)
  say "";
  say "-- busiest alert windows (top %d by alerts) --" top_windows;
  let ranked =
    List.filter (fun (_, w) -> w.w_alerts > 0) snap.s_windows
    |> List.stable_sort (fun (ia, a) (ib, b) ->
           let c = compare b.w_alerts a.w_alerts in
           if c <> 0 then c else compare ia ib)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  (match ranked with
  | [] -> say "(no alerts)"
  | ranked ->
    Buffer.add_string buf
      (Mutil.Text_table.render
         ~header:[ "window start"; "updates"; "opened"; "closed"; "alerts" ]
         (List.map
            (fun (idx, w) ->
              [
                window_label cfg idx;
                string_of_int w.w_updates;
                string_of_int w.w_opened;
                string_of_int w.w_closed;
                string_of_int w.w_alerts;
              ])
            (take top_windows ranked))));
  Buffer.contents buf
