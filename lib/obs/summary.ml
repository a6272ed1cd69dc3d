type run = {
  run_id : int;
  label : string;
  policy : string;
  horizon : int option;
  capacity : int;
  admitted : int;
  rejected : int;
  completed : int;
  killed : int;
  owed : int;
  decisions : int;
  certified : int;
  divergences : int;
  latencies : int array;
  reject_reasons : (string * int) list;
}

type span_stat = {
  span_name : string;
  count : int;
  total_s : float;
  self_s : float;
  max_s : float;
}

type slow_span = { slow_name : string; slow_run : int; slow_s : float }
type series = { series_name : string; samples : (int option * float) list }

type hist_point = {
  hp_sim : int option;
  hp_count : int;
  hp_sum : float;
  hp_p50 : float;
  hp_p95 : float;
  hp_p99 : float;
  hp_max : float;
}

type hist_series = { hist_name : string; points : hist_point list }

type t = {
  total_events : int;
  runs : run list;
  span_stats : span_stat list;
  slowest : slow_span list;
  series : series list;
  hist_series : hist_series list;
}

let offered r = r.admitted + r.rejected

let admit_rate r =
  let o = offered r in
  if o = 0 then 0. else float_of_int r.admitted /. float_of_int o

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let sorted_quantile a q =
  let n = Array.length a in
  if n = 0 then 0
  else
    let q = Float.min 1. (Float.max 0. q) in
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let latency_quantile r q = sorted_quantile r.latencies q

(* Mutable accumulator per run while scanning the stream. *)
type racc = {
  mutable a_label : string;
  mutable a_capacity : int;
  mutable a_admitted : int;
  mutable a_rejected : int;
  mutable a_completed : int;
  mutable a_killed : int;
  mutable a_owed : int;
  mutable a_decisions : int;
  mutable a_certified : int;
  mutable a_divergences : int;
  mutable a_latencies : int list;
  a_reject_reasons : (string, int) Hashtbl.t;
}

(* Count-descending, then name, so the heaviest bucket leads and ties
   are deterministic. *)
let sorted_reasons tbl =
  Hashtbl.fold (fun slug n acc -> (slug, n) :: acc) tbl []
  |> List.sort (fun (s1, n1) (s2, n2) ->
         match compare n2 n1 with 0 -> String.compare s1 s2 | c -> c)

let merge_reasons tbl reasons =
  List.iter
    (fun (slug, n) ->
      Hashtbl.replace tbl slug
        (n + Option.value (Hashtbl.find_opt tbl slug) ~default:0))
    reasons

(* A span flattened out of its inline record, so it can be accumulated. *)
type sp = {
  sp_run : int;
  sp_name : string;
  sp_id : int;
  sp_parent : int option;
  sp_dur : float;
}

let of_events ?(top = 10) events =
  let runs : (int, racc) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let racc run_id =
    match Hashtbl.find_opt runs run_id with
    | Some a -> a
    | None ->
        let a =
          {
            a_label = "";
            a_capacity = 0;
            a_admitted = 0;
            a_rejected = 0;
            a_completed = 0;
            a_killed = 0;
            a_owed = 0;
            a_decisions = 0;
            a_certified = 0;
            a_divergences = 0;
            a_latencies = [];
            a_reject_reasons = Hashtbl.create 8;
          }
        in
        Hashtbl.replace runs run_id a;
        order := run_id :: !order;
        a
  in
  let admit_time : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  let spans = ref [] in
  let series_tbl : (string, (int option * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let hist_tbl : (string, hist_point list ref) Hashtbl.t = Hashtbl.create 16 in
  let total_events = ref 0 in
  List.iter
    (fun (e : Events.t) ->
      incr total_events;
      let a = racc e.Events.run in
      match e.Events.payload with
      | Events.Run_started { label } -> a.a_label <- label
      | Events.Capacity_joined { quantity; _ } ->
          a.a_capacity <- a.a_capacity + quantity
      | Events.Completed { id } ->
          a.a_completed <- a.a_completed + 1;
          Option.iter
            (fun t ->
              match Hashtbl.find_opt admit_time (e.Events.run, id) with
              | Some t0 -> a.a_latencies <- (t - t0) :: a.a_latencies
              | None -> ())
            e.Events.sim
      | Events.Killed { owed; _ } ->
          a.a_killed <- a.a_killed + 1;
          a.a_owed <- a.a_owed + owed
      | Events.Span { name; id; parent; depth = _; begin_s = _; duration_s } ->
          spans :=
            {
              sp_run = e.Events.run;
              sp_name = name;
              sp_id = id;
              sp_parent = parent;
              sp_dur = duration_s;
            }
            :: !spans
      | Events.Metric_sample { name; value; family = _ } ->
          let cell =
            match Hashtbl.find_opt series_tbl name with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.replace series_tbl name c;
                c
          in
          cell := (e.Events.sim, value) :: !cell
      | Events.Hist_sample { name; count; sum; min_v = _; max_v; p50; p95; p99 }
        ->
          let cell =
            match Hashtbl.find_opt hist_tbl name with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.replace hist_tbl name c;
                c
          in
          cell :=
            {
              hp_sim = e.Events.sim;
              hp_count = count;
              hp_sum = sum;
              hp_p50 = p50;
              hp_p95 = p95;
              hp_p99 = p99;
              hp_max = max_v;
            }
            :: !cell
      (* Certificate coverage: a trace from an older binary carries
         decisions without certificates (or none at all) — the summary
         makes that gap visible without running a full audit. *)
      | Events.Decision { id; action; slug; certificate; _ } -> (
          a.a_decisions <- a.a_decisions + 1;
          if certificate <> Json.Null then a.a_certified <- a.a_certified + 1;
          match action with
          | "admit" ->
              a.a_admitted <- a.a_admitted + 1;
              Option.iter
                (fun t -> Hashtbl.replace admit_time (e.Events.run, id) t)
                e.Events.sim
          (* Bucketed by the same slug the metrics counters use
             (admission/reject_reason.<slug>), so the two tellings agree. *)
          | "reject" ->
              a.a_rejected <- a.a_rejected + 1;
              merge_reasons a.a_reject_reasons [ (slug, 1) ]
          | _ -> ())
      | Events.Audit_divergence _ -> a.a_divergences <- a.a_divergences + 1
      (* Fault/repair lifecycle events don't change admission or
         completion counts; the repair counters reach the summary as
         metric samples instead.  Likewise sheds: nothing was offered to
         the decider, so they stay out of the admission arithmetic and
         arrive as server/shed.* samples. *)
      | Events.Fault_injected _ | Events.Shed _
      | Events.Commitment_revoked _ | Events.Commitment_degraded _
      | Events.Repaired _ | Events.Preempted _ | Events.Anomaly _
      | Events.Unknown _ -> ())
    events;
  let runs =
    List.rev_map
      (fun run_id ->
        let a = Hashtbl.find runs run_id in
        let latencies = Array.of_list a.a_latencies in
        Array.sort compare latencies;
        {
          run_id;
          label = a.a_label;
          policy = Option.value (Events.label_field "policy" a.a_label) ~default:"";
          horizon =
            Option.bind (Events.label_field "horizon" a.a_label) int_of_string_opt;
          capacity = a.a_capacity;
          admitted = a.a_admitted;
          rejected = a.a_rejected;
          completed = a.a_completed;
          killed = a.a_killed;
          owed = a.a_owed;
          decisions = a.a_decisions;
          certified = a.a_certified;
          divergences = a.a_divergences;
          latencies;
          reject_reasons = sorted_reasons a.a_reject_reasons;
        })
      !order
    |> List.sort (fun r1 r2 -> compare r1.run_id r2.run_id)
  in
  let spans = List.rev !spans in
  (* Self time = own duration minus direct children's durations, linked
     by the span id/parent fields.  Legacy spans (id 0) carry no linkage
     and count their whole duration as self time. *)
  let child_sum : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.sp_parent with
      | Some p ->
          Hashtbl.replace child_sum p
            (s.sp_dur +. Option.value (Hashtbl.find_opt child_sum p) ~default:0.)
      | None -> ())
    spans;
  let by_name : (string, span_stat) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.sp_dur
        -.
        (if s.sp_id = 0 then 0.
         else Option.value (Hashtbl.find_opt child_sum s.sp_id) ~default:0.)
      in
      let self = Float.max 0. self in
      let prev =
        Option.value
          (Hashtbl.find_opt by_name s.sp_name)
          ~default:
            {
              span_name = s.sp_name;
              count = 0;
              total_s = 0.;
              self_s = 0.;
              max_s = 0.;
            }
      in
      Hashtbl.replace by_name s.sp_name
        {
          prev with
          count = prev.count + 1;
          total_s = prev.total_s +. s.sp_dur;
          self_s = prev.self_s +. self;
          max_s = Float.max prev.max_s s.sp_dur;
        })
    spans;
  let span_stats =
    Hashtbl.fold (fun _ v acc -> v :: acc) by_name []
    |> List.sort (fun a b -> compare b.total_s a.total_s)
  in
  let slowest =
    List.map
      (fun s -> { slow_name = s.sp_name; slow_run = s.sp_run; slow_s = s.sp_dur })
      spans
    |> List.sort (fun a b -> compare b.slow_s a.slow_s)
    |> List.filteri (fun i _ -> i < top)
  in
  let series =
    Hashtbl.fold
      (fun name cell acc ->
        { series_name = name; samples = List.rev !cell } :: acc)
      series_tbl []
    |> List.sort (fun a b -> String.compare a.series_name b.series_name)
  in
  let hist_series =
    Hashtbl.fold
      (fun name cell acc -> { hist_name = name; points = List.rev !cell } :: acc)
      hist_tbl []
    |> List.sort (fun a b -> String.compare a.hist_name b.hist_name)
  in
  { total_events = !total_events; runs; span_stats; slowest; series; hist_series }

(* --- per-policy aggregation (for diff) ----------------------------------- *)

type agg = {
  agg_policy : string;
  agg_runs : int;
  agg_offered : int;
  agg_admitted : int;
  agg_completed : int;
  agg_killed : int;
  agg_owed : int;
  agg_latencies : int array;
  agg_reject_reasons : (string * int) list;
}

let agg_admit_rate a =
  if a.agg_offered = 0 then 0.
  else float_of_int a.agg_admitted /. float_of_int a.agg_offered

let agg_quantile a q = sorted_quantile a.agg_latencies q

let by_policy t =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = if r.policy = "" then "(unlabelled)" else r.policy in
      let prev =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
            order := key :: !order;
            {
              agg_policy = key;
              agg_runs = 0;
              agg_offered = 0;
              agg_admitted = 0;
              agg_completed = 0;
              agg_killed = 0;
              agg_owed = 0;
              agg_latencies = [||];
              agg_reject_reasons = [];
            }
      in
      let reasons = Hashtbl.create 8 in
      merge_reasons reasons prev.agg_reject_reasons;
      merge_reasons reasons r.reject_reasons;
      Hashtbl.replace tbl key
        {
          prev with
          agg_runs = prev.agg_runs + 1;
          agg_offered = prev.agg_offered + offered r;
          agg_admitted = prev.agg_admitted + r.admitted;
          agg_completed = prev.agg_completed + r.completed;
          agg_killed = prev.agg_killed + r.killed;
          agg_owed = prev.agg_owed + r.owed;
          agg_latencies = Array.append prev.agg_latencies r.latencies;
          agg_reject_reasons = sorted_reasons reasons;
        })
    t.runs;
  List.rev_map
    (fun key ->
      let a = Hashtbl.find tbl key in
      let latencies = Array.copy a.agg_latencies in
      Array.sort compare latencies;
      { a with agg_latencies = latencies })
    !order
