open Import

(* Latency families use the registry's log-spaced seconds buckets; the
   slack histogram is in simulated ticks, so it gets explicit
   small-integer bounds instead. *)
let rtt = Metrics.histogram "server/rtt_s"
let queue_wait = Metrics.histogram "server/queue_wait_s"
let fsync = Metrics.histogram "server/fsync_s"

let slack_buckets =
  [| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let admit_slack = Metrics.histogram ~buckets:slack_buckets "server/admit_slack"
let queue_depth = Metrics.gauge "server/queue_depth"
let connections = Metrics.gauge "server/connections"
let burn_5m = Metrics.gauge "slo/burn_5m"
let burn_1h = Metrics.gauge "slo/burn_1h"
let set_burn g burn = Metrics.set g (int_of_float (Float.round (burn *. 1000.)))
let wal_bytes = Metrics.counter "server/wal_bytes"
let request_counter verb = Metrics.counter ("server/requests." ^ verb)
let shed_counter slug = Metrics.counter ("server/shed." ^ slug)

(* Pre-register every family the daemon can touch, so a scrape taken
   before the first request of a kind still lists the series at zero —
   dashboards and the golden scrape test key on stable family sets. *)
let () =
  List.iter
    (fun v -> ignore (request_counter v))
    [
      "admit"; "release"; "revoke"; "join"; "query"; "metrics"; "ping";
      "shutdown"; "invalid";
    ];
  List.iter
    (fun s -> ignore (shed_counter s))
    [ "queue-full"; "predicted-delay"; "budget-spent" ]

let verb_of_op = function
  | Wire.Admit _ -> "admit"
  | Wire.Release _ -> "release"
  | Wire.Revoke _ -> "revoke"
  | Wire.Join _ -> "join"
  | Wire.Query _ -> "query"
  | Wire.Metrics -> "metrics"
  | Wire.Ping -> "ping"
  | Wire.Shutdown -> "shutdown"

let count_request verb = Metrics.incr (request_counter verb)
let count_shed slug = Metrics.incr (shed_counter slug)

let completion_bound (cert : Certificate.t) =
  match cert.Certificate.evidence with
  | Certificate.Schedules parts ->
      let stop acc (p : Certificate.part) =
        List.fold_left
          (fun acc (s : Certificate.step) ->
            max acc (Interval.stop s.Certificate.subwindow))
          acc p.Certificate.steps
      in
      let bound = List.fold_left stop min_int parts in
      if bound = min_int then None else Some bound
  | Certificate.Aggregate_fit { window; _ } -> Some (Interval.stop window)
  | Certificate.Optimistic_fit { window; _ } -> Some (Interval.stop window)
  | Certificate.Infeasible | Certificate.Stale _ | Certificate.Duplicate ->
      None

let observe_admit_slack ~deadline cert =
  if Metrics.enabled () then
    match completion_bound cert with
    | None -> ()
    | Some stop -> Metrics.observe admit_slack (float_of_int (deadline - stop))
