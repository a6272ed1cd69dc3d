open Import

(* The benchmark's own wire client: one connection, a closed loop with a
   fixed number of requests outstanding.  One connection fixes the
   order in which the daemon decides, so every run of a seed gets the
   same verdicts.  During the phase the client only writes pre-encoded
   lines and cuts replies at newlines; replies are decoded and checked
   afterwards, outside the measured window. *)

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  pending : Buffer.t;
  mutable waited_ns : int64;  (** Spent polling for replies. *)
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 65536; pending = Buffer.create 65536; waited_ns = 0L }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let len = String.length line in
  let rec go pos =
    if pos < len then
      match Unix.write_substring c.fd line pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> go pos
  in
  go 0

exception Silent

(* Wait for reply bytes by polling the non-blocking socket: the client
   is a caller blocked on its verdict, and spinning keeps its core awake,
   so the time to notice a reply does not depend on how fast an idle
   virtual CPU is woken.  The daemon has the machine's other core. *)
let read_some c ~timeout =
  let t0 = now_ns () in
  let rec go () =
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | n ->
        c.waited_ns <- Int64.add c.waited_ns (Int64.sub (now_ns ()) t0);
        n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        if since_s t0 > timeout then raise Silent else go ()
  in
  go ()

(* Read once (waiting at most [timeout] s) and hand every complete line
   to [f]. *)
let read_lines ?(timeout = 60.) c f =
  match read_some c ~timeout with
  | 0 -> raise Silent
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get c.buf i = '\n' then begin
          Buffer.add_subbytes c.pending c.buf !start (i - !start);
          f (Buffer.contents c.pending);
          Buffer.clear c.pending;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.pending c.buf !start (n - !start)

(* One request, one reply. *)
let call c (op : Wire.op) =
  send c (Wire.request_to_line { Wire.tag = Json.Null; op } ^ "\n");
  let got = ref None in
  while !got = None do
    read_lines c (fun line -> got := Some line)
  done;
  match Wire.response_of_line (Option.get !got) with
  | Ok r -> Ok r.Wire.reply
  | Error m -> Error m

type phase = {
  first : int;  (** Index of the first request sent. *)
  last : int;  (** One past the last request sent. *)
  sent_ns : int64 array;  (** Indexed by request. *)
  recv_ns : int64 array;
  replies : string array;
  wall_s : float;  (** First send to last reply. *)
  busy_s : float;
      (** The client's own work during the phase: its wall time minus
          the time it spent polling for replies. *)
  silent : bool;  (** The daemon stopped answering. *)
}

(* Send [reqs] from [first] keeping [depth] outstanding.  [stop] is
   asked after each send whether to send more; the phase then waits for
   every outstanding reply. *)
let drive c ~(reqs : Workload.request array) ~first ~depth ~stop =
  let n = Array.length reqs in
  let sent_ns = Array.make n 0L and recv_ns = Array.make n 0L in
  let replies = Array.make n "" in
  let next = ref first and done_ = ref first and sending = ref true in
  let waited0 = c.waited_ns in
  let t0 = now_ns () in
  let silent = ref false in
  (try
     while !sending || !done_ < !next do
       while !sending && !next - !done_ < depth do
         let i = !next in
         sent_ns.(i) <- now_ns ();
         send c reqs.(i).Workload.line;
         incr next;
         if !next >= n || stop !next then sending := false
       done;
       if !done_ < !next then
         read_lines c (fun line ->
             let t = now_ns () in
             recv_ns.(!done_) <- t;
             replies.(!done_) <- line;
             incr done_)
     done
   with Silent | Unix.Unix_error _ -> silent := true);
  let wall_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
  {
    first;
    last = !done_;
    sent_ns;
    recv_ns;
    replies;
    wall_s;
    busy_s = wall_s -. (Int64.to_float (Int64.sub c.waited_ns waited0) /. 1e9);
    silent = !silent || !done_ < !next;
  }

let rtt_ms p i = Int64.to_float (Int64.sub p.recv_ns.(i) p.sent_ns.(i)) /. 1e6
