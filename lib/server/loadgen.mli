open Import

(** [rota load]: a closed-loop client for the serve daemon.

    Replays a scenario trace — resource joins become {!Wire.Join}
    requests, computation arrivals {!Wire.Admit} requests, each carrying
    its event time as the logical [now] — over [connections] sockets,
    holding every connection at [pipeline] outstanding requests (closed
    loop: new work is issued only as responses return, so the offered
    rate tracks the daemon's actual capacity unless [pipeline] is set
    high enough to overload it deliberately).  Round-trip times land in
    the shared {!Metrics} histogram machinery; the report quotes its
    quantiles. *)

type config = {
  address : Daemon.address;
  connections : int;
  pipeline : int;  (** Outstanding requests per connection. *)
  budget_ms : float option;  (** Attached to every admit request. *)
  trace : Trace.t;
}

type report = {
  offered : int;  (** Admit requests sent. *)
  joins : int;
  admitted : int;
  rejected : int;  (** Decided rejects, sheds excluded. *)
  shed : int;
  failed : int;
  duration_s : float;
  rtt_ms : float * float * float * float;  (** p50, p90, p95, p99. *)
  rtt_mean_ms : float;
  rtt_max_ms : float;
      (** The worst round trip, exact: the quantiles above come from
          histogram buckets and cannot show how long the tail is. *)
  digest : string option;
      (** The daemon's residual digest after the run — what [rota
          audit] of its WAL must reproduce. *)
}

val run : config -> (report, string) result
(** [Error] on connection loss or malformed responses; the message says
    how many responses were still outstanding. *)

val pp_report : Format.formatter -> report -> unit
