open Import

(** The [rota serve] daemon: a single-threaded [select] loop serving the
    {!Wire} protocol over a Unix or TCP socket, with {!Wal} durability
    and {!Shed} overload protection.

    Request lifecycle: bytes → {!Wire.request_of_line} → the bounded
    FIFO (or an immediate shed verdict, which still travels {e through}
    the FIFO so responses stay in per-connection request order) → decide
    through {!Replica.apply} → append to the WAL → one [fsync] per batch
    (group commit) → respond.  No response precedes its fsync, so every
    acknowledged transition survives a crash.

    Backpressure: when the queue is full the loop simply stops
    [select]ing client descriptors readable (and the listener
    acceptable), so overload is pushed back into kernel buffers and
    client connect queues instead of process memory.

    Observability (unless [telemetry = false]): every request carries a
    correlation id (minted [r<pid>-<n>], echoed in the reply [cid] field
    — and as the [tag] for untagged requests — and stamped into the WAL
    decision record) and a [server/request] span with
    parse/queue-wait/decide/encode children; the {!Telemetry} families
    fill in as traffic flows; a {!Rota_audit.Watchdog} re-verifies every
    WAL event and feeds the deadline-assurance {!Rota_obs.Slo} windows
    behind the [slo/burn_*] gauges; and a {!Rota_obs.Flight} ring keeps
    the last [flight_capacity] events in memory, dumped to
    [<dir>/flight-<pid>.rotb] on SIGQUIT, the first audit divergence, a
    shed storm, or a fatal exception.  Every record the daemon produces
    — WAL events, spans, sheds, divergences — reaches them through one
    {!Rota_obs.Sink.tee} of the watchdog, the flight ring and the
    [metrics_out] snapshot sink.  Every duration is a difference of
    monotonic {!Rota_obs.Clock} readings.

    Scraping: [metrics_listen] adds a second listener inside the same
    [select] loop that answers any HTTP request with an OpenMetrics
    exposition ([rota metrics scrape], curl, or a Prometheus scraper);
    the wire verb {!Wire.Metrics} answers the same snapshot in-band;
    [metrics_out] atomically rewrites an exposition file every
    [metrics_every] observed events.

    Shutdown: SIGTERM/SIGINT (or a {!Wire.Shutdown} request) drains —
    stop accepting and reading, decide everything queued, flush
    responses, fsync, snapshot, exit cleanly.  SIGQUIT dumps the flight
    recorder first, then drains. *)

type address = Unix_socket of string | Tcp of string * int

type config = {
  dir : string;  (** WAL + snapshot directory (created if missing). *)
  address : address;
  policy : Admission.policy;
  cost_model : Cost_model.t option;
  max_queue : int;
  default_budget_ms : float;
  snapshot_every : int;  (** Decided requests between snapshots. *)
  decide_delay_ms : float;
      (** Test hook: artificial latency added to every decision, so
          overload (and therefore shedding) can be provoked
          deterministically.  [0.] in production. *)
  max_connections : int;
  telemetry : bool;
      (** [false] switches the whole observability plane off: no metric
          recording, no spans, no watchdog, no flight recorder.  The
          bench's overhead pair flips exactly this. *)
  metrics_listen : address option;
      (** Scrape endpoint: a second listener answering HTTP with the
          OpenMetrics exposition. *)
  metrics_out : string option;
      (** Atomically rewritten exposition file, for file-based
          collectors. *)
  metrics_every : int;
      (** Observed events between [metrics_out] rewrites. *)
  slo_budget : float;
      (** Fraction of requests allowed to miss (shed, or decided then
          contradicted by the live audit) before the burn rate exceeds
          1.0. *)
  flight_capacity : int;  (** Flight-recorder ring size, in events. *)
}

val config :
  ?max_queue:int ->
  ?default_budget_ms:float ->
  ?snapshot_every:int ->
  ?decide_delay_ms:float ->
  ?max_connections:int ->
  ?telemetry:bool ->
  ?metrics_listen:address ->
  ?metrics_out:string ->
  ?metrics_every:int ->
  ?slo_budget:float ->
  ?flight_capacity:int ->
  ?cost_model:Cost_model.t ->
  dir:string ->
  address:address ->
  Admission.policy ->
  config
(** Defaults: telemetry on, no scrape listener, no exposition file,
    [metrics_every = 256], [slo_budget = 0.01] (99% of requests),
    [flight_capacity = 4096]. *)

val run : ?on_ready:(Wal.recovery -> unit) -> config -> (unit, string) result
(** Recover (or create) the WAL, bind, serve until drained.  [on_ready]
    fires once the socket is listening, with the recovery summary —
    the CLI prints its "listening" line from it, and smoke tests key on
    that line to know the daemon is up. *)
