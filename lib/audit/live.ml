open Import

(* --- the reconstructed ledger --------------------------------------------- *)

(* Everything the auditor knows comes from the event stream: capacity is
   the union of capacity-joined slice terms minus fault slice terms, the
   commitment map is driven by decision records and lifecycle events
   (completed/killed/preempted/revoked release their reservations), and
   the baselines' demand ledger is rebuilt from their own certificates.

   The auditor keeps its own incremental sum of the live reservations,
   [committed], updated with one union per commitment and one difference
   per release, revocation or degradation — the same discipline as
   [Calendar], but maintained from the stream alone, so the checker
   shares no state with the decider.  The residual a certificate is
   checked against, [capacity - committed], is a third cached set: a
   commitment is one difference from it, a release one union, a
   capacity join one union.  Only a capacity fault drops it, because a
   clamped difference does not distribute over the subtraction; the
   next read recomputes it once.  A decision's audit therefore costs
   what the decision touched, and the untouched profiles of the residual
   stay physically shared — their digest slots with them — from one
   decision to the next.

   The sums are truncated at the stream's simulated-time frontier
   ([advance]), so what the auditor holds is what is still in force, not
   the history of every slice that ever joined.  Truncation is pointwise
   per tick and so commutes with union, difference and clamped
   difference: truncating the stored sums early gives exactly the
   residual the untruncated ones would give at check time — provided
   simulated time never decreases within a run.  It does not, for both
   streams the auditor reads: the engine emits in simulated-time order
   (its event queue pops in nondecreasing time, and the trace contract,
   [Trace_reader.validate_file] clause 3, checks it), and a WAL's every
   record is stamped with [Replica.now], which only moves forward.  Span
   records are the one exception (emitted at span exit, a parent after
   its children, e.g. [engine/run] at sim 0 at the very end of a run),
   so their [sim] never moves the frontier.

   The state is bounded by the number of *live* commitments, not by the
   length of the stream: every table entry is created by an admission
   and removed by the matching lifecycle event, and the two sums only
   hold what lies at or after the frontier. *)
type ledger = {
  mutable policy : string;
  mutable frontier : int;  (* both sums are truncated before this tick *)
  mutable capacity : Resource_set.t;
  mutable capacity_known : bool;
      (* Cleared when a join or revocation carries no slice terms (a
         trace from an older binary): from then on the residual cannot
         be reconstructed and residual-dependent checks are skipped. *)
  entries : (string, Resource_set.t) Hashtbl.t;
      (* Live reservations, as certified (untruncated). *)
  mutable committed : Resource_set.t;
      (* The sum of [entries], truncated at [frontier]. *)
  mutable residual : Resource_set.t option;
      (* [capacity - committed]; [None] after a capacity fault, or while
         the commitments exceed capacity, until [residual] recomputes
         it. *)
  demands : (string, Interval.t * (Located_type.t * int) list) Hashtbl.t;
}

let fresh_ledger () =
  {
    policy = "";
    frontier = min_int;
    capacity = Resource_set.empty;
    capacity_known = true;
    entries = Hashtbl.create 64;
    committed = Resource_set.empty;
    residual = Some Resource_set.empty;
    demands = Hashtbl.create 64;
  }

let reset_ledger led ~policy =
  led.policy <- policy;
  led.frontier <- min_int;
  led.capacity <- Resource_set.empty;
  led.capacity_known <- true;
  Hashtbl.reset led.entries;
  led.committed <- Resource_set.empty;
  led.residual <- Some Resource_set.empty;
  Hashtbl.reset led.demands

let advance led now =
  if now > led.frontier then begin
    led.frontier <- now;
    led.capacity <- Resource_set.truncate_before led.capacity now;
    led.committed <- Resource_set.truncate_before led.committed now;
    led.residual <-
      Option.map (fun r -> Resource_set.truncate_before r now) led.residual
  end

(* A set entering either sum is cut at the frontier first, so the sums
   keep holding nothing from the past. *)
let in_force led set = Resource_set.truncate_before set led.frontier

let uncommit led id =
  match Hashtbl.find_opt led.entries id with
  | None -> ()
  | Some r -> (
      Hashtbl.remove led.entries id;
      let r = in_force led r in
      match Resource_set.diff led.committed r with
      | Ok c ->
          led.committed <- c;
          led.residual <-
            Option.map (fun res -> Resource_set.union res r) led.residual
      | Error d ->
          (* [committed] is the sum of the live entries, [r] among them,
             so the difference is defined unless the sum has drifted. *)
          invalid_arg
            (Format.asprintf
               "live auditor: invariant violation: releasing %s: the \
                committed sum does not cover its reservation (%a)"
               id Resource_set.pp_deficit d))

let commit led id r =
  uncommit led id;
  Hashtbl.replace led.entries id r;
  let r = in_force led r in
  led.committed <- Resource_set.union led.committed r;
  led.residual <-
    Option.bind led.residual (fun res -> Result.to_option (Resource_set.diff res r))

let residual led =
  match led.residual with
  | Some r -> Ok r
  | None -> (
      match Resource_set.diff led.capacity led.committed with
      | Ok r ->
          led.residual <- Some r;
          Ok r
      | Error d ->
          Error
            (Format.asprintf
               "reconstructed commitments exceed reconstructed capacity (%a)"
               Resource_set.pp_deficit d))

(* Is the id admitted-and-active, as [Admission.already_admitted] would
   see it?  Calendar entries live until explicitly released; demand
   records expire with their windows (the controller prunes them on
   advance). *)
let is_live led ~now id =
  Hashtbl.mem led.entries id
  ||
  match Hashtbl.find_opt led.demands id with
  | Some (w, _) -> Interval.stop w > now
  | None -> false

let release led id =
  uncommit led id;
  Hashtbl.remove led.demands id

(* Recompute the aggregate baseline's feasibility table from the replayed
   ledger and compare it row by row with what the decider recorded. *)
let recheck_rows led ~now ~window rows =
  List.concat_map
    (fun (r : Certificate.row) ->
      let capacity =
        Resource_set.integrate led.capacity r.Certificate.row_type window
      in
      let committed =
        Hashtbl.fold
          (fun _ (w, totals) acc ->
            if Interval.stop w > now && Interval.overlaps w window then
              acc
              + List.fold_left
                  (fun acc (xi, q) ->
                    if Located_type.equal xi r.Certificate.row_type then acc + q
                    else acc)
                  0 totals
            else acc)
          led.demands 0
      in
      (if capacity = r.Certificate.capacity then []
       else
         [
           Format.asprintf
             "row %a: capacity %d recorded, %d reconstructed" Located_type.pp
             r.Certificate.row_type r.Certificate.capacity capacity;
         ])
      @
      if committed = r.Certificate.committed then []
      else
        [
          Format.asprintf "row %a: committed %d recorded, %d reconstructed"
            Located_type.pp r.Certificate.row_type r.Certificate.committed
            committed;
        ])
    rows

(* --- per-decision verification -------------------------------------------- *)

type verdict = Verified | Skipped of string | Diverged of string list

let audit_decision led ~now ~id ~action (cert : Certificate.t) =
  let errors = ref [] in
  let skip = ref None in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let check_residual k =
    if not led.capacity_known then (
      if !skip = None then
        skip := Some "capacity terms missing: residual cannot be reconstructed")
    else match residual led with Error m -> err "%s" m | Ok r -> k r
  in
  let commit () = commit led id (Certificate.reservation cert) in
  (match (action, cert.Certificate.evidence) with
  | "admit", Certificate.Schedules _ ->
      if is_live led ~now id then err "admitted an id that is already live";
      check_residual (fun r ->
          match Certificate.verify ~residual:r cert with
          | Ok () -> ()
          | Error m -> err "%s" m);
      (* Track the reservation even on divergence, so one bad decision
         does not cascade into digest mismatches on every later one. *)
      commit ()
  | "admit", Certificate.Aggregate_fit { window; rows; fits } ->
      if is_live led ~now id then err "admitted an id that is already live";
      if not fits then
        err "admit recorded, but the certificate's own table does not fit";
      check_residual (fun r ->
          (match Certificate.verify ~residual:r cert with
          | Ok () -> ()
          | Error m -> err "%s" m);
          List.iter (fun m -> err "%s" m) (recheck_rows led ~now ~window rows));
      Hashtbl.replace led.demands id
        ( window,
          List.map
            (fun (row : Certificate.row) ->
              (row.Certificate.row_type, row.Certificate.demand))
            rows )
  | "admit", Certificate.Optimistic_fit { window; totals } ->
      if is_live led ~now id then err "admitted an id that is already live";
      if now >= Interval.stop window then
        err "optimistic admit at t%d, at or past the deadline t%d" now
          (Interval.stop window);
      Hashtbl.replace led.demands id (window, totals)
  | "admit", (Certificate.Infeasible | Certificate.Stale _ | Certificate.Duplicate)
    ->
      err "admit decision carries reject evidence"
  | "reject", Certificate.Infeasible ->
      check_residual (fun r ->
          match Certificate.verify ~residual:r cert with
          | Ok () -> ()
          | Error m -> err "%s" m)
  | "reject", Certificate.Aggregate_fit { window; rows; fits } ->
      if fits then err "reject recorded, but the certificate's own table fits";
      check_residual (fun r ->
          (match Certificate.verify ~residual:r cert with
          | Ok () -> ()
          | Error m -> err "%s" m);
          List.iter (fun m -> err "%s" m) (recheck_rows led ~now ~window rows))
  | "reject", Certificate.Stale { deadline } ->
      if now < deadline then
        err "stale reject at t%d, before the deadline t%d" now deadline
  | "reject", Certificate.Duplicate ->
      if not (is_live led ~now id) then
        err "duplicate reject, but the id is not live in the reconstructed ledger"
  | "reject", (Certificate.Schedules _ | Certificate.Optimistic_fit _) ->
      err "reject decision carries admit evidence"
  | "evict", Certificate.Schedules _ ->
      (* The reservation was just revoked, so the residual does not cover
         it — dominance is meaningless here.  Structure and digest (the
         post-revocation residual the engine saw) are still checked. *)
      (match Certificate.well_formed cert with
      | Ok () -> ()
      | Error m -> err "%s" m);
      if cert.Certificate.digest <> "" then
        check_residual (fun r ->
            let d = Certificate.digest_like cert.Certificate.digest r in
            if not (String.equal d cert.Certificate.digest) then
              err "residual digest mismatch: certificate %s, reconstructed %s"
                cert.Certificate.digest d)
  | "evict", _ -> err "evict decision without schedule evidence"
  | "repair", Certificate.Schedules _ ->
      (* The victim's old reservation was released before the ladder ran
         (eviction or degradation), so the rescue verifies like a fresh
         Theorem-3 admission and re-enters the ledger. *)
      check_residual (fun r ->
          match Certificate.verify ~residual:r cert with
          | Ok () -> ()
          | Error m -> err "%s" m);
      commit ()
  | "repair", _ -> err "repair decision without schedule evidence"
  | a, _ -> err "unknown decision action %S" a);
  match (List.rev !errors, !skip) with
  | [], None -> Verified
  | [], Some reason -> Skipped reason
  | errs, _ -> Diverged errs

(* --- the incremental auditor ----------------------------------------------- *)

type outcome = {
  seq : int;
  run : int;
  sim : int option;
  id : string;
  action : string;
  slug : string;
  certificate : Json.t;
  verdict : verdict;
}

type t = {
  led : ledger;
  mutable now : int;
  mutable events : int;
  mutable runs : int;
  mutable decisions : int;
  mutable verified : int;
  mutable skipped : int;
  mutable diverged : int;
}

let create () =
  {
    led = fresh_ledger ();
    now = 0;
    events = 0;
    runs = 0;
    decisions = 0;
    verified = 0;
    skipped = 0;
    diverged = 0;
  }

let events t = t.events
let runs t = t.runs
let decisions t = t.decisions
let verified t = t.verified
let skipped t = t.skipped
let diverged t = t.diverged

let live_commitments t =
  Hashtbl.length t.led.entries + Hashtbl.length t.led.demands

let apply_terms led terms k =
  match terms with
  | Json.Null -> led.capacity_known <- false
  | terms -> (
      match Certificate.rects_of_json terms with
      | Ok rects -> k (in_force led (Certificate.set_of_rects rects))
      | Error _ -> led.capacity_known <- false)

(* A join distributes over the residual: (C + s) - K = (C - K) + s. *)
let join led slice =
  led.capacity <- Resource_set.union led.capacity slice;
  led.residual <-
    Option.map (fun r -> Resource_set.union r slice) led.residual

(* A clamped removal does not: the residual is recomputed when next
   read. *)
let revoke led slice =
  led.capacity <- Resource_set.diff_clamped led.capacity slice;
  led.residual <- None

let step t (e : Events.t) =
  t.events <- t.events + 1;
  (match (e.Events.sim, e.Events.payload) with
  | _, Events.Span _ | None, _ -> ()
  | Some tm, _ ->
      t.now <- tm;
      advance t.led tm);
  let now = t.now in
  let led = t.led in
  match e.Events.payload with
  | Events.Run_started { label } ->
      t.runs <- t.runs + 1;
      reset_ledger led
        ~policy:(Option.value (Events.label_field "policy" label) ~default:"");
      None
  | Events.Capacity_joined { terms; _ } ->
      apply_terms led terms (join led);
      None
  | Events.Fault_injected { fault = "revocation" | "blackout"; quantity; terms }
    ->
      if terms = Json.Null && quantity = 0 then
        (* An older binary would omit terms even for a no-op fault; a
           no-op cannot desynchronize the capacity either way. *)
        ()
      else apply_terms led terms (revoke led);
      None
  | Events.Fault_injected _ ->
      (* Slowdowns touch demand, not capacity; a rejoin's capacity
         arrives in the Capacity_joined record that follows it. *)
      None
  | Events.Commitment_revoked { id; _ } ->
      uncommit led id;
      None
  | Events.Commitment_degraded { id; released; _ } ->
      if released then uncommit led id;
      None
  | Events.Completed { id } | Events.Killed { id; _ } | Events.Preempted { id; _ }
    ->
      release led id;
      None
  | Events.Decision { id; action; slug; certificate; _ } ->
      t.decisions <- t.decisions + 1;
      let verdict =
        match certificate with
        | Json.Null -> Skipped "no certificate recorded"
        | cj -> (
            match Certificate.of_json cj with
            | Error m -> Diverged [ "unparseable certificate: " ^ m ]
            | Ok cert -> audit_decision led ~now ~id ~action cert)
      in
      (match verdict with
      | Verified -> t.verified <- t.verified + 1
      | Skipped _ -> t.skipped <- t.skipped + 1
      | Diverged _ -> t.diverged <- t.diverged + 1);
      Some
        {
          seq = e.Events.seq;
          run = e.Events.run;
          sim = e.Events.sim;
          id;
          action;
          slug;
          certificate;
          verdict;
        }
  (* The watchdog's own divergence reports are inert to the auditor:
     re-auditing a watchdogged trace must reproduce the original
     verdicts, and a watchdog observing its own emission must not
     recurse. *)
  | Events.Audit_divergence _
  | Events.Shed _
  | Events.Repaired _ | Events.Anomaly _ | Events.Span _
  | Events.Metric_sample _ | Events.Hist_sample _ | Events.Unknown _ ->
      None

(* Recovery verification hook: a recovered controller's own residual
   must hash to exactly what this independent reconstruction derives
   from the WAL — the daemon refuses to serve otherwise. *)
let residual_digest t =
  if not t.led.capacity_known then
    Error "capacity terms missing: residual cannot be reconstructed"
  else
    match residual t.led with
    | Ok r -> Ok (Certificate.digest r)
    | Error m -> Error m
