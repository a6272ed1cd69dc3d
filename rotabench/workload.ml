open Import

(* The request sequences the serve workloads send, made from the
   workload seed, together with the verdict an in-process replica gives
   each one: the oracle every daemon reply is checked against. *)

type kind = Admit | Release | Query | Join

type request = {
  kind : kind;
  line : string;  (** The wire line, newline included. *)
  expected : Wire.reply;  (** What the oracle replica answered. *)
  live : int;  (** The oracle's ledger size once the request is decided. *)
}

(* The default scenario stretched to [arrivals] computations, at
   [density] times its arrival density.  [churn] keeps the default join
   density too; without it the scenario is what [rota simulate
   --arrivals --horizon --locations --slack] builds, ten joins in all. *)
let scenario ~density ~churn ~seed ~arrivals ~locations ~slack () =
  let d = Scenario.default_params in
  let stretch = max 1 (arrivals / d.Scenario.arrivals) in
  {
    d with
    Scenario.seed;
    arrivals;
    locations;
    slack;
    horizon = d.Scenario.horizon * stretch / density;
    churn_joins = (if churn then d.Scenario.churn_joins * stretch else d.Scenario.churn_joins);
  }

module Releases = Map.Make (Int)

(* One request in this many is a read-only [stats] query. *)
let query_every = 8

(* Walk the scenario in tick order; every admitted computation is
   released at its deadline tick (before anything else at that tick),
   and every [query_every]-th request is a query.  Stops after [limit]
   requests. *)
let generate ~limit params =
  let oracle = Replica.create Admission.Rota in
  let out = ref [] and count = ref 0 in
  let full () = !count >= limit in
  let push kind op =
    if not (full ()) then begin
      let _payloads, expected = Replica.apply oracle op in
      let line = Wire.request_to_line { Wire.tag = Json.Null; op } ^ "\n" in
      let live = Admission.ledger_size (Replica.controller oracle) in
      out := { kind; line; expected; live } :: !out;
      incr count;
      Some expected
    end
    else None
  in
  let since_query = ref 0 in
  let emit kind op =
    let reply = push kind op in
    incr since_query;
    if !since_query >= query_every - 1 then begin
      since_query := 0;
      ignore (push Query (Wire.Query "stats"))
    end;
    reply
  in
  let releases = ref Releases.empty in
  let flush_releases upto =
    let rec go () =
      match Releases.min_binding_opt !releases with
      | Some (tick, ids) when tick <= upto && not (full ()) ->
          releases := Releases.remove tick !releases;
          List.iter
            (fun id -> ignore (emit Release (Wire.Release { now = tick; id })))
            (List.rev ids);
          go ()
      | _ -> ()
    in
    go ()
  in
  let schedule_release tick id =
    releases :=
      Releases.update tick
        (function None -> Some [ id ] | Some ids -> Some (id :: ids))
        !releases
  in
  List.iter
    (fun (at, ev) ->
      if not (full ()) then begin
        flush_releases at;
        match ev with
        | Trace.Join theta ->
            ignore
              (emit Join
                 (Wire.Join { now = at; terms = Certificate.rects_of_set theta }))
        | Trace.Arrive c -> (
            match
              emit Admit (Wire.Admit { now = at; computation = c; budget_ms = None })
            with
            | Some (Wire.Decided { action = "admit"; _ }) ->
                schedule_release c.Computation.deadline c.Computation.id
            | _ -> ())
        | Trace.Arrive_session _ -> ()
      end)
    (Trace.events (Scenario.trace params));
  flush_releases max_int;
  Array.of_list (List.rev !out)

(* The daemon's [stats] answer carries the replica's fields plus its own
   serving counters; only the replica's part is the oracle's business. *)
let reply_matches ~expected ~got =
  match (expected, got) with
  | Wire.Info want, Wire.Info have ->
      List.for_all
        (fun (k, v) ->
          match List.assoc_opt k have with Some v' -> v = v' | None -> false)
        want
  | _ -> expected = got

let verdict = function
  | Wire.Decided { action; _ } -> Some action
  | _ -> None

(* --- the benchmark's workloads ------------------------------------------ *)

type spec = {
  name : string;
  e2e : [ `Serve | `Sim ];  (** What the untraced runs measure. *)
  locations : int;
  slack : float;
  density : int;  (** Arrivals per tick, relative to the default scenario. *)
  arrivals : int;  (** Computations behind the request sequence. *)
  limit : int;  (** Requests generated (and decided by the oracle). *)
  pipeline : int;  (** Requests outstanding on the one connection. *)
  prefix : int;
      (** Requests a first daemon applies and is SIGKILLed after; the
          measured daemon recovers from that state.  [0]: fresh start. *)
  setups : int;  (** Set-ups timed per run; the median is reported. *)
  traced : int;  (** Requests in the traced run's daemon phase and replay. *)
  sim_arrivals : int;  (** Computations in the simulator scenario. *)
  intensity : float;  (** Fault-plan intensity of the simulator scenario. *)
}

(* The simulator workload's requests come from its own scenario. *)
let serve_params spec ~seed =
  scenario ~density:spec.density ~churn:(spec.e2e = `Serve) ~seed ~arrivals:spec.arrivals
    ~locations:spec.locations ~slack:spec.slack ()

let sim_params spec ~seed =
  scenario ~density:spec.density ~churn:false ~seed ~arrivals:spec.sim_arrivals
    ~locations:spec.locations ~slack:spec.slack ()

let all =
  [
    {
      name = "churn";
      e2e = `Serve;
      locations = 3;
      slack = 2.0;
      density = 1;
      arrivals = 55000;
      limit = 110000;
      pipeline = 1;
      prefix = 0;
      setups = 9;
      traced = 4000;
      sim_arrivals = 1000;
      intensity = 0.;
    };
    {
      name = "ledger-deep";
      e2e = `Serve;
      locations = 12;
      slack = 12.0;
      density = 5;
      arrivals = 32000;
      limit = 70000;
      pipeline = 16;
      prefix = 3200;
      setups = 5;
      traced = 2000;
      sim_arrivals = 400;
      intensity = 0.;
    };
    {
      name = "sim-faults";
      e2e = `Sim;
      locations = 3;
      slack = 2.0;
      density = 1;
      arrivals = 2000;
      limit = 4000;
      pipeline = 1;
      prefix = 0;
      setups = 9;
      traced = 2000;
      sim_arrivals = 2000;
      intensity = 1.0;
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
