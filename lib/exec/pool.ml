let default_jobs () =
  match Sys.getenv_opt "MOAS_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Work stealing by index from a shared atomic counter: assignment order
   varies between runs, but every result is written to its input slot and
   the caller only reads after all domains have joined, so the returned
   array is independent of scheduling.  The [results] array is only ever
   written at distinct indices (each index is claimed exactly once) and
   the domain join provides the happens-before edge for the final reads. *)
let map ?jobs f arr =
  let n = Array.length arr in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  if n = 0 || jobs <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (match f arr.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (* keep the first failure; later ones are abandoned with the
               remaining tasks *)
            ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          loop ()
        end
      in
      loop ()
    in
    (* a new domain starts with backtrace recording off; it follows the
       caller's, so a task that raises off the caller keeps its frames *)
    let recording = Printexc.backtrace_status () in
    let helper () =
      Printexc.record_backtrace recording;
      worker ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn helper) in
    worker ();
    List.iter Domain.join domains;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every index < n was claimed *))
        results
  end

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))
