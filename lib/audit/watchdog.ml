open Import

type mode = Warn | Fail_fast

type stats = {
  decisions : int;
  verified : int;
  skipped : int;
  divergences : int;
}

let no_stats = { decisions = 0; verified = 0; skipped = 0; divergences = 0 }

let diff_stats a b =
  {
    decisions = a.decisions - b.decisions;
    verified = a.verified - b.verified;
    skipped = a.skipped - b.skipped;
    divergences = a.divergences - b.divergences;
  }

exception Trip of { seq : int; id : string; message : string }

type t = {
  live : Live.t;
  base : stats;  (* the adopted auditor's counts at creation *)
  mode : mode;
  on_outcome : (Live.outcome -> unit) option;
  mutable divergences : int;  (* complaints, not decisions *)
}

(* Registered once at module init, mutated on the hot path: O(1) loads
   when the registry is disabled, like every other instrumented path. *)
let c_verified = Metrics.counter "audit/verified"
let c_skipped = Metrics.counter "audit/skipped"
let c_divergence = Metrics.counter "audit/divergence"
let g_lag = Metrics.gauge "audit/lag"
let h_step = Metrics.histogram "audit/step_s"

let live_counts live =
  {
    decisions = Live.decisions live;
    verified = Live.verified live;
    skipped = Live.skipped live;
    divergences = 0;
  }

let create ?(mode = Warn) ?on_outcome ?(live = Live.create ()) () =
  { live; base = live_counts live; mode; on_outcome; divergences = 0 }

let stats t =
  { (diff_stats (live_counts t.live) t.base) with divergences = t.divergences }

let live t = t.live

let observe t (e : Events.t) =
  match Metrics.time h_step (fun () -> Live.step t.live e) with
  | None -> ()
  | Some (o : Live.outcome) ->
      (* Verification delay behind the event's own stamp, in
         microseconds: ~0 when the watchdog rides the emitting process,
         the tail-distance when it follows a file another process is
         writing. *)
      Metrics.set g_lag
        (int_of_float ((Clock.wall_s () -. e.Events.wall_s) *. 1e6));
      (match t.on_outcome with Some f -> f o | None -> ());
      (match o.Live.verdict with
      | Live.Verified -> Metrics.incr c_verified
      | Live.Skipped _ -> Metrics.incr c_skipped
      | Live.Diverged msgs ->
          t.divergences <- t.divergences + List.length msgs;
          Metrics.add c_divergence (List.length msgs);
          (* Divergences flow back into the same trace the decision came
             from, one event per complaint.  Reentrant emission is safe:
             the watchdog sees its own audit-divergence events, and
             [Live.step] ignores that kind. *)
          List.iter
            (fun message ->
              Tracer.emit ?sim:o.Live.sim
                (Events.Audit_divergence
                   {
                     id = o.Live.id;
                     action = o.Live.action;
                     of_seq = o.Live.seq;
                     message;
                   }))
            msgs;
          if t.mode = Fail_fast then
            raise
              (Trip
                 { seq = o.Live.seq; id = o.Live.id; message = List.hd msgs }))

let sink t = Sink.make ~emit:(observe t) ~close:(fun () -> ())

(* --- the process-global instance ------------------------------------------ *)

(* The engine does not own the watchdog (the CLI installs it around
   whole commands, spanning runs); it only snapshots the stats delta a
   run contributed, via this registration. *)
let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let installed () = !current

let pp_stats ppf s =
  Format.fprintf ppf
    "watchdog: %d decisions, %d verified, %d skipped, %d divergent%s"
    s.decisions s.verified s.skipped s.divergences
    (if s.divergences = 0 && s.skipped = 0 && s.decisions > 0 then
       " -- every decision re-verified live"
     else "")
