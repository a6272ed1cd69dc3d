type t = { emit : Events.t -> unit; close : unit -> unit }

let make ~emit ~close = { emit; close }

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

let memory () =
  let captured = ref [] in
  let sink =
    { emit = (fun e -> captured := e :: !captured); close = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !captured)

let jsonl ?(flush_every = 1) oc =
  if flush_every < 1 then invalid_arg "Sink.jsonl: flush_every must be >= 1";
  (* Line-at-a-time flush (the default): an interrupted run (Ctrl-C,
     SIGPIPE) still leaves every completed event on disk.  A larger
     [flush_every] amortizes the flush syscall for high-rate tracing at
     the cost of losing up to that many trailing events on a crash. *)
  let unflushed = ref 0 in
  {
    emit =
      (fun e ->
        output_string oc (Events.to_line e);
        output_char oc '\n';
        incr unflushed;
        if !unflushed >= flush_every then begin
          unflushed := 0;
          flush oc
        end);
    close = (fun () -> unflushed := 0; flush oc);
  }

(* Crash safety for buffered sinks: if the process unwinds without
   anyone calling [close] — another sink raised out of the engine, a
   fatal error path, plain [exit] — the buffered tail would vanish
   and leave a torn trace.  Flush (and close, releasing the fd) from
   [at_exit]; the [closed] guard makes the handler a no-op after a
   normal close, so the channel is never double-closed. *)
let owning_file ~make path =
  let oc = open_out_bin path in
  let inner = make oc in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      inner.close ();
      close_out oc
    end
  in
  at_exit close;
  { inner with close }

let jsonl_file ?flush_every path = owning_file ~make:(jsonl ?flush_every) path

let binary ?(flush_every = 1) oc =
  if flush_every < 1 then invalid_arg "Sink.binary: flush_every must be >= 1";
  (* The header goes out (and is flushed) immediately, so the file
     identifies itself as binary from the first write — a reader
     sniffing the magic never sees a headerless prefix. *)
  output_string oc Binary.header;
  flush oc;
  let unflushed = ref 0 in
  let buf = Buffer.create 192 in
  {
    emit =
      (fun e ->
        Buffer.clear buf;
        Binary.encode buf e;
        Buffer.output_buffer oc buf;
        incr unflushed;
        if !unflushed >= flush_every then begin
          unflushed := 0;
          flush oc
        end);
    close = (fun () -> unflushed := 0; flush oc);
  }

let binary_file ?flush_every path = owning_file ~make:(binary ?flush_every) path

let console ppf =
  {
    emit =
      (fun e ->
        match e.Events.payload with
        | Events.Span _ | Events.Metric_sample _ | Events.Hist_sample _ -> ()
        | _ -> Format.fprintf ppf "%a@." Events.pp e);
    close = (fun () -> Format.pp_print_flush ppf ());
  }

let tee a b =
  {
    emit = (fun e -> a.emit e; b.emit e);
    close = (fun () -> a.close (); b.close ());
  }
