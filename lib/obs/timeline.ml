(* One row per computation, one column per slice of simulated time:

     run 1: engine policy=rota dispatch=reservation horizon=40
       sim      0         10        20        30
                |---------|---------|---------|---------
       capacity +
       c1       A==C
       c2       x

   A = admitted, = running, C = completed, X = killed at deadline,
   x = rejected at arrival, + = capacity join, > = still running at the
   end of the trace. *)

type comp = {
  c_id : string;
  mutable c_admit : int option;
  mutable c_reject : int option;
  mutable c_end : (int * char) option;
}

type racc = {
  r_id : int;
  mutable r_label : string;
  mutable r_comps : comp list;  (* reverse arrival order *)
  mutable r_joins : (int * int) list;  (* reverse order: (sim, quantity) *)
  mutable r_max_sim : int;
}

let legend =
  "legend: A admitted  = running  C completed  X killed  x rejected  \
   + capacity join  > still running"

let render ?(width = 60) events =
  let width = max 10 width in
  let runs : (int, racc) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let racc id =
    match Hashtbl.find_opt runs id with
    | Some r -> r
    | None ->
        let r =
          { r_id = id; r_label = ""; r_comps = []; r_joins = []; r_max_sim = 0 }
        in
        Hashtbl.replace runs id r;
        order := id :: !order;
        r
  in
  let comp r id =
    match List.find_opt (fun c -> String.equal c.c_id id) r.r_comps with
    | Some c -> c
    | None ->
        let c = { c_id = id; c_admit = None; c_reject = None; c_end = None } in
        r.r_comps <- c :: r.r_comps;
        c
  in
  List.iter
    (fun (e : Events.t) ->
      let r = racc e.Events.run in
      Option.iter (fun t -> r.r_max_sim <- max r.r_max_sim t) e.Events.sim;
      let sim = Option.value e.Events.sim ~default:r.r_max_sim in
      match e.Events.payload with
      | Events.Run_started { label } -> r.r_label <- label
      | Events.Capacity_joined { quantity; _ } ->
          r.r_joins <- (sim, quantity) :: r.r_joins
      | Events.Decision { id; action = "admit"; _ } ->
          (comp r id).c_admit <- Some sim
      | Events.Decision { id; action = "reject"; _ } ->
          (comp r id).c_reject <- Some sim
      | Events.Completed { id } -> (comp r id).c_end <- Some (sim, 'C')
      | Events.Killed { id; _ } -> (comp r id).c_end <- Some (sim, 'X')
      (* A preemption ends the computation's lane like a kill, just
         earlier and by choice. *)
      | Events.Preempted { id; _ } -> (comp r id).c_end <- Some (sim, 'P')
      | Events.Decision _ | Events.Shed _ | Events.Fault_injected _
      | Events.Commitment_revoked _ | Events.Commitment_degraded _
      | Events.Repaired _ | Events.Anomaly _ | Events.Span _
      | Events.Metric_sample _ | Events.Hist_sample _
      | Events.Audit_divergence _ | Events.Unknown _ -> ())
    events;
  let buf = Buffer.create 1024 in
  let run_ids = List.rev !order in
  List.iter
    (fun run_id ->
      let r = Hashtbl.find runs run_id in
      let comps = List.rev r.r_comps in
      let horizon =
        let from_label =
          Option.bind (Events.label_field "horizon" r.r_label) int_of_string_opt
        in
        max 1 (max (Option.value from_label ~default:0) (r.r_max_sim + 1))
      in
      let pos t = min (width - 1) (t * width / horizon) in
      let gutter =
        List.fold_left
          (fun acc c -> max acc (String.length c.c_id))
          (String.length "capacity") comps
        + 2
      in
      let row name track =
        Buffer.add_string buf "  ";
        Buffer.add_string buf name;
        Buffer.add_string buf (String.make (gutter - String.length name) ' ');
        Buffer.add_string buf track;
        Buffer.add_char buf '\n'
      in
      Buffer.add_string buf
        (Printf.sprintf "run %d: %s\n" run_id
           (if r.r_label = "" then "(no run-started record)" else r.r_label));
      (* Ruler: a tick every 10 columns, labelled with its sim time. *)
      let labels = Buffer.create width and rule = Buffer.create width in
      let col = ref 0 in
      while !col < width do
        let label = string_of_int (!col * horizon / width) in
        Buffer.add_string labels label;
        let pad = min (width - !col) 10 - String.length label in
        if pad > 0 then Buffer.add_string labels (String.make pad ' ');
        Buffer.add_char rule '|';
        Buffer.add_string rule (String.make (min (width - !col) 10 - 1) '-');
        col := !col + 10
      done;
      row "sim" (Buffer.contents labels);
      row "" (Buffer.contents rule);
      (if r.r_joins <> [] then
         let track = Bytes.make width ' ' in
         List.iter
           (fun (t, _) -> Bytes.set track (pos t) '+')
           (List.rev r.r_joins);
         let note =
           String.concat ", "
             (List.rev_map
                (fun (t, q) -> Printf.sprintf "+%d@t%d" q t)
                r.r_joins)
         in
         row "capacity" (Bytes.to_string track ^ "  " ^ note));
      List.iter
        (fun c ->
          let track = Bytes.make width ' ' in
          (match (c.c_admit, c.c_reject) with
          | Some ta, _ ->
              let a = pos ta in
              let stop, stop_c =
                match c.c_end with
                | Some (te, ch) -> (pos te, ch)
                | None -> (width - 1, '>')
              in
              let stop = max a stop in
              Bytes.fill track a (stop - a + 1) '=';
              Bytes.set track a 'A';
              if stop > a then Bytes.set track stop stop_c
          | None, Some tr -> Bytes.set track (pos tr) 'x'
          | None, None -> ());
          row c.c_id (Bytes.to_string track))
        comps;
      Buffer.add_char buf '\n')
    run_ids;
  Buffer.add_string buf legend;
  Buffer.add_char buf '\n';
  Buffer.contents buf
