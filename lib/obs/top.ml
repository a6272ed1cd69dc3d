(* Incremental dashboard state for [rota top]: fold events one at a
   time (live, through a Follow cursor) or all at once ([--once]), then
   render a fixed-layout frame.  The module is pure fold + render — the
   terminal loop (polling, ANSI redraw, key handling) lives in the CLI
   so this logic is testable from a plain event list. *)

type hist_snap = {
  hs_count : int;
  hs_sum : float;
  hs_p50 : float;
  hs_p95 : float;
  hs_p99 : float;
  hs_max : float;
}

type t = {
  source : string;
  mutable events : int;
  mutable last_seq : int;
  mutable runs : int;
  mutable run_label : string;
  mutable last_sim : int option;
  mutable last_wall : float option;
  mutable first_wall : float option;
  mutable admitted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable killed : int;
  mutable preempted : int;
  mutable repaired : int;
  mutable faults : int;
  mutable divergences : int;
  mutable shed : int;
  counters : (string, float) Hashtbl.t;  (* last metric-sample, counters *)
  gauges : (string, float) Hashtbl.t;  (* last metric-sample, gauges *)
  hists : (string, hist_snap) Hashtbl.t;  (* last hist-sample *)
  completions : (int, int) Hashtbl.t;  (* sim tick -> completions *)
  mutable max_sim : int;
}

let create ~source () =
  {
    source;
    events = 0;
    last_seq = 0;
    runs = 0;
    run_label = "";
    last_sim = None;
    last_wall = None;
    first_wall = None;
    admitted = 0;
    rejected = 0;
    completed = 0;
    killed = 0;
    preempted = 0;
    repaired = 0;
    faults = 0;
    divergences = 0;
    shed = 0;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    completions = Hashtbl.create 64;
    max_sim = 0;
  }

let step t (e : Events.t) =
  t.events <- t.events + 1;
  t.last_seq <- e.Events.seq;
  t.last_wall <- Some e.Events.wall_s;
  if t.first_wall = None then t.first_wall <- Some e.Events.wall_s;
  (match e.Events.sim with
  | Some s ->
      t.last_sim <- Some s;
      if s > t.max_sim then t.max_sim <- s
  | None -> ());
  match e.Events.payload with
  | Events.Run_started { label } ->
      t.runs <- t.runs + 1;
      t.run_label <- label
  | Events.Decision { action = "admit"; _ } -> t.admitted <- t.admitted + 1
  | Events.Decision { action = "reject"; _ } -> t.rejected <- t.rejected + 1
  | Events.Completed _ ->
      t.completed <- t.completed + 1;
      Option.iter
        (fun s ->
          Hashtbl.replace t.completions s
            (1 + Option.value (Hashtbl.find_opt t.completions s) ~default:0))
        e.Events.sim
  | Events.Killed _ -> t.killed <- t.killed + 1
  | Events.Preempted _ -> t.preempted <- t.preempted + 1
  | Events.Repaired _ -> t.repaired <- t.repaired + 1
  | Events.Fault_injected _ -> t.faults <- t.faults + 1
  | Events.Shed _ -> t.shed <- t.shed + 1
  | Events.Audit_divergence _ -> t.divergences <- t.divergences + 1
  | Events.Metric_sample { name; value; family } ->
      let tbl =
        match family with
        | Some "counter" -> t.counters
        (* Untagged samples (older traces) land with the gauges — for a
           dashboard, "last value" is the right reading either way. *)
        | Some _ | None -> t.gauges
      in
      Hashtbl.replace tbl name value
  | Events.Hist_sample { name; count; sum; min_v = _; max_v; p50; p95; p99 } ->
      Hashtbl.replace t.hists name
        {
          hs_count = count;
          hs_sum = sum;
          hs_p50 = p50;
          hs_p95 = p95;
          hs_p99 = p99;
          hs_max = max_v;
        }
  | Events.Capacity_joined _ | Events.Decision _ | Events.Commitment_revoked _
  | Events.Commitment_degraded _ | Events.Anomaly _ | Events.Span _
  | Events.Unknown _ ->
      ()

(* --- rendering ----------------------------------------------------------- *)

let is_latency name =
  let name =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  String.length name > 2 && String.sub name (String.length name - 2) 2 = "_s"

(* Seconds, human scale: 12.3µs / 4.56ms / 1.23s. *)
let pp_secs v =
  if v < 0. then "-"
  else if v < 1e-3 then Printf.sprintf "%.1fµs" (v *. 1e6)
  else if v < 1. then Printf.sprintf "%.2fms" (v *. 1e3)
  else Printf.sprintf "%.2fs" v

let pp_quantity name v =
  if is_latency name then pp_secs v
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let spark_chars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                    "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                    "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* Completions per simulated tick, the whole run so far compressed into
   [cols] columns (each column sums a tick range; tallest column sets
   the scale). *)
let sparkline t cols =
  if cols <= 0 || Hashtbl.length t.completions = 0 then ""
  else begin
    let span = t.max_sim + 1 in
    let per_col = max 1 ((span + cols - 1) / cols) in
    let ncols = (span + per_col - 1) / per_col in
    let col_totals = Array.make ncols 0 in
    Hashtbl.iter
      (fun sim n ->
        let c = sim / per_col in
        if c >= 0 && c < ncols then col_totals.(c) <- col_totals.(c) + n)
      t.completions;
    let peak = Array.fold_left max 0 col_totals in
    if peak = 0 then ""
    else
      String.concat ""
        (Array.to_list
           (Array.map
              (fun n ->
                if n = 0 then " "
                else spark_chars.((n * 7 + peak - 1) / peak |> min 7)
              )
              col_totals))
  end

let sorted_tbl tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let audit_stat t name =
  match Hashtbl.find_opt t.counters name with
  | Some v -> Printf.sprintf "%.0f" v
  | None -> (
      match Hashtbl.find_opt t.gauges name with
      | Some v -> Printf.sprintf "%.0f" v
      | None -> "-")

let render ?(width = 80) ?(following = false) t =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let mode = if following then "following" else "once" in
  line "rota top — %s  [%s]" t.source mode;
  let sim = match t.last_sim with Some s -> Printf.sprintf "t%d" s | None -> "t-" in
  let wall =
    match (t.first_wall, t.last_wall) with
    | Some a, Some b -> Printf.sprintf "  wall +%.1fs" (b -. a)
    | _ -> ""
  in
  line "events %d  runs %d  sim %s%s" t.events t.runs sim wall;
  if t.run_label <> "" then line "run %d: %s" t.runs t.run_label;
  line "";
  line "admitted %d  rejected %d  completed %d  killed %d  preempted %d"
    t.admitted t.rejected t.completed t.killed t.preempted;
  if t.shed > 0 then line "shed %d (load refused before deciding)" t.shed;
  if t.faults + t.repaired > 0 then
    line "faults %d  repaired %d" t.faults t.repaired;
  line "audit verified %s  skipped %s  divergent %d  lag %s"
    (audit_stat t "audit/verified")
    (audit_stat t "audit/skipped")
    t.divergences
    (audit_stat t "audit/lag");
  let spark = sparkline t (max 8 (width - 24)) in
  if spark <> "" then begin
    line "";
    line "completions/tick  %s" spark
  end;
  let hists = sorted_tbl t.hists in
  if hists <> [] then begin
    line "";
    line "%-36s %8s %10s %10s %10s %10s" "latency (last sample)" "count"
      "p50" "p95" "p99" "max";
    List.iter
      (fun (name, h) ->
        line "%-36s %8d %10s %10s %10s %10s" name h.hs_count
          (pp_quantity name h.hs_p50)
          (pp_quantity name h.hs_p95)
          (pp_quantity name h.hs_p99)
          (pp_quantity name h.hs_max))
      hists
  end;
  let scalar_section title rows =
    if rows <> [] then begin
      line "";
      line "%-44s %12s" title "value";
      List.iter
        (fun (name, v) -> line "%-44s %12s" name (pp_quantity name v))
        rows
    end
  in
  scalar_section "counters (last sample)" (sorted_tbl t.counters);
  scalar_section "gauges (last sample)" (sorted_tbl t.gauges);
  Buffer.contents buf
