open Net
module Report = Stream.Report

type entry = {
  x_prefix : Prefix.t;
  x_seq : int;
  x_started : int;
  x_ended : int option;
  x_days : int;
  x_max_origins : int;
  x_origins : Asn.Set.t;
  x_clean : bool;
  x_seen_by : string list;
  x_first_detect : int option;
  x_last_detect : int option;
}

type t = { c_vantages : string list; c_entries : entry list }

let visibility e = List.length e.x_seen_by

(* The correlation is one merge-join: every list below comes from
   [Report.episodes], sorted by (prefix, start, seq), so each vantage
   keeps a cursor that only moves forward as the merged list is walked. *)

(* Drop the head episodes that overlap neither merged episode [prefix,
   started] nor any merged episode after it: those on an earlier prefix,
   and those on [prefix] that ended before [started] (the merged
   episodes of a prefix come in start order). *)
let rec skip prefix started = function
  | (v : Report.episode_view) :: rest
    when let c = Prefix.compare v.Report.v_prefix prefix in
         c < 0
         || c = 0
            && Option.value v.Report.v_ended ~default:max_int < started ->
    skip prefix started rest
  | eps -> eps

(* The cursor's suffix headed by the first episode on [prefix] that
   overlaps [started, hi] (open intervals extend to the end of time), or
   [] if none does.  That episode has the minimum start of all the
   overlapping ones, since the list is sorted by start. *)
let rec first_overlap prefix started hi = function
  | (v : Report.episode_view) :: rest as eps
    when Prefix.equal v.Report.v_prefix prefix && v.Report.v_started <= hi ->
    if Option.value v.Report.v_ended ~default:max_int >= started then eps
    else first_overlap prefix started hi rest
  | _ -> []

let correlate ~vantages ~merged =
  let vantages =
    List.sort (fun (a, _) (b, _) -> String.compare a b) vantages
  in
  let names = Array.of_list (List.map fst vantages) in
  let cursors =
    Array.of_list (List.map (fun (_, snap) -> Report.episodes snap) vantages)
  in
  let entry (m : Report.episode_view) =
    let prefix = m.Report.v_prefix and started = m.Report.v_started in
    let hi = Option.value m.Report.v_ended ~default:max_int in
    let seen_by = ref [] and first = ref max_int and last = ref min_int in
    (* right to left, so [seen_by] comes out in name order *)
    for i = Array.length names - 1 downto 0 do
      let eps = skip prefix started cursors.(i) in
      cursors.(i) <- eps;
      match first_overlap prefix started hi eps with
      | [] -> ()
      | v :: _ ->
        seen_by := names.(i) :: !seen_by;
        first := Int.min !first v.Report.v_started;
        last := Int.max !last v.Report.v_started
    done;
    let seen_by = !seen_by in
    {
      x_prefix = prefix;
      x_seq = m.Report.v_seq;
      x_started = started;
      x_ended = m.Report.v_ended;
      x_days = m.Report.v_days;
      x_max_origins = m.Report.v_max_origins;
      x_origins = m.Report.v_origins;
      x_clean = m.Report.v_clean;
      x_seen_by = seen_by;
      x_first_detect = (if seen_by = [] then None else Some !first);
      x_last_detect = (if seen_by = [] then None else Some !last);
    }
  in
  {
    c_vantages = Array.to_list names;
    c_entries = List.map entry (Report.episodes merged);
  }

let of_result (r : Mesh.result) =
  correlate ~vantages:r.Mesh.r_per_vantage ~merged:r.Mesh.r_merged

(* ------------------------------------------------------------------ *)
(* Binary codec for one entry, shared by the MOASSTOR store format and
   the MOASSERV wire protocol (Net.Codec discipline). *)

let write_entry buf e =
  Codec.put_prefix buf e.x_prefix;
  Codec.put_i63 buf e.x_seq;
  Codec.put_i63 buf e.x_started;
  Codec.put_option buf Codec.put_i63 e.x_ended;
  Codec.put_i63 buf e.x_days;
  Codec.put_u32 buf e.x_max_origins;
  Codec.put_asn_set buf e.x_origins;
  Codec.put_bool buf e.x_clean;
  Codec.put_list buf Codec.put_string e.x_seen_by;
  Codec.put_option buf Codec.put_i63 e.x_first_detect;
  Codec.put_option buf Codec.put_i63 e.x_last_detect

let read_entry c =
  let x_prefix = Codec.take_prefix c in
  let x_seq = Codec.take_i63 c in
  let x_started = Codec.take_i63 c in
  let x_ended = Codec.take_option c Codec.take_i63 in
  let x_days = Codec.take_i63 c in
  let x_max_origins = Codec.take_u32 c in
  let x_origins = Codec.take_asn_set c in
  let x_clean = Codec.take_bool c in
  let x_seen_by = Codec.take_list c Codec.take_string in
  let x_first_detect = Codec.take_option c Codec.take_i63 in
  let x_last_detect = Codec.take_option c Codec.take_i63 in
  {
    x_prefix;
    x_seq;
    x_started;
    x_ended;
    x_days;
    x_max_origins;
    x_origins;
    x_clean;
    x_seen_by;
    x_first_detect;
    x_last_detect;
  }

let render_entry ~vantage_count e =
  let origins =
    Asn.Set.elements e.x_origins |> List.map Asn.to_string |> String.concat ","
  in
  let ended =
    match e.x_ended with Some v -> string_of_int v | None -> "open"
  in
  Printf.sprintf "%s#%d [%d..%s] origins={%s} %s visibility=%d/%d"
    (Prefix.to_string e.x_prefix)
    e.x_seq e.x_started ended origins
    (if e.x_clean then "clean" else "FLAGGED")
    (visibility e) vantage_count

let render t =
  let buf = Buffer.create 1024 in
  let n = List.length t.c_vantages in
  Buffer.add_string buf "=== Cross-vantage correlation ===\n";
  Buffer.add_string buf
    (Printf.sprintf "vantages: %d (%s)\n" n (String.concat " " t.c_vantages));
  Buffer.add_string buf
    (Printf.sprintf "merged episodes: %d\n" (List.length t.c_entries));
  List.iter
    (fun e ->
      let origins =
        Asn.Set.elements e.x_origins |> List.map Asn.to_string
        |> String.concat ","
      in
      let ended =
        match e.x_ended with Some v -> string_of_int v | None -> "open"
      in
      let spread =
        match (e.x_first_detect, e.x_last_detect) with
        | Some f, Some l -> Printf.sprintf "first=%d last=%d" f l
        | _ -> "cross-vantage only"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s#%d [%d..%s] origins={%s} %s visibility=%d/%d seen-by=[%s] %s\n"
           (Prefix.to_string e.x_prefix)
           e.x_seq e.x_started ended origins
           (if e.x_clean then "clean" else "FLAGGED")
           (visibility e) n
           (String.concat " " e.x_seen_by)
           spread))
    t.c_entries;
  let full, partial, cross_only =
    List.fold_left
      (fun (f, p, c) e ->
        let k = visibility e in
        if k = n then (f + 1, p, c)
        else if k = 0 then (f, p, c + 1)
        else (f, p + 1, c))
      (0, 0, 0) t.c_entries
  in
  let flagged =
    List.length (List.filter (fun e -> not e.x_clean) t.c_entries)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "visibility: full=%d partial=%d cross-vantage-only=%d\nflagged: %d\n"
       full partial cross_only flagged);
  Buffer.contents buf
