(* Compact binary trace codec.

   Layout: a 5-byte file header (magic "ROTB" + version byte), then one
   length-prefixed record per event.  Every integer — record lengths
   included — is an LEB128 varint; signed fields are zigzag-mapped first
   so small negatives stay small.  Floats are the 8 little-endian bytes
   of [Int64.bits_of_float], which round-trips every value exactly
   (including nan and the infinities, which the JSONL codec cannot
   carry through [%.17g]).  Structured payload fields ([terms],
   [certificate], unknown-kind fields) are embedded as compact JSON
   strings: [Json.to_string] already round-trips exactly, so the binary
   format reuses that contract instead of inventing a second tree
   encoding. *)

let magic = "ROTB"
let version = 1
let header = magic ^ String.make 1 (Char.chr version)

(* Cap on a single record's length prefix.  Real records are tens to a
   few hundred bytes; a multi-megabyte claim means the stream is not a
   record boundary (corrupt file, or a JSONL file misdetected), and
   bounding it keeps a bad prefix from forcing a giant allocation. *)
let max_record_bytes = 16 * 1024 * 1024

(* --- encoding ------------------------------------------------------------ *)

let put_uvarint b n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... so sign costs one bit,
   not a max-width varint. *)
let put_int b n = put_uvarint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_string b s =
  put_uvarint b (String.length s);
  Buffer.add_string b s

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')
let put_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let put_json b j =
  match (j : Json.t) with
  | Json.Null -> Buffer.add_char b '\000'
  | j ->
      Buffer.add_char b '\001';
      put_string b (Json.to_string j)

let put_int_opt b = function
  | None -> Buffer.add_char b '\000'
  | Some n ->
      Buffer.add_char b '\001';
      put_int b n

let put_string_opt b = function
  | None -> Buffer.add_char b '\000'
  | Some s ->
      Buffer.add_char b '\001';
      put_string b s

let put_payload b (p : Events.payload) =
  let tag t = Buffer.add_char b (Char.chr t) in
  match p with
  | Events.Run_started { label } ->
      tag 1;
      put_string b label
  | Events.Capacity_joined { quantity; terms } ->
      tag 2;
      put_int b quantity;
      put_json b terms
  | Events.Decision { id; policy; action; slug; certificate; cid } ->
      tag 5;
      put_string b id;
      put_string b policy;
      put_string b action;
      put_string b slug;
      put_json b certificate;
      put_string_opt b cid
  | Events.Completed { id } ->
      tag 6;
      put_string b id
  | Events.Killed { id; owed } ->
      tag 7;
      put_string b id;
      put_int b owed
  | Events.Fault_injected { fault; quantity; terms } ->
      tag 8;
      put_string b fault;
      put_int b quantity;
      put_json b terms
  | Events.Commitment_revoked { id; quantity } ->
      tag 9;
      put_string b id;
      put_int b quantity
  | Events.Commitment_degraded { id; extra; released } ->
      tag 10;
      put_string b id;
      put_int b extra;
      put_bool b released
  | Events.Repaired { id; rung; attempt; certificate } ->
      tag 11;
      put_string b id;
      put_string b rung;
      put_int b attempt;
      put_json b certificate
  | Events.Preempted { id; owed } ->
      tag 12;
      put_string b id;
      put_int b owed
  | Events.Anomaly { id; reason } ->
      tag 13;
      put_string b id;
      put_string b reason
  | Events.Span { name; id; parent; depth; begin_s; duration_s } ->
      tag 14;
      put_string b name;
      put_int b id;
      put_int_opt b parent;
      put_int b depth;
      put_float b begin_s;
      put_float b duration_s
  | Events.Metric_sample { name; value; family } ->
      tag 15;
      put_string b name;
      put_float b value;
      put_string_opt b family
  | Events.Hist_sample { name; count; sum; min_v; max_v; p50; p95; p99 } ->
      tag 16;
      put_string b name;
      put_int b count;
      put_float b sum;
      put_float b min_v;
      put_float b max_v;
      put_float b p50;
      put_float b p95;
      put_float b p99
  | Events.Audit_divergence { id; action; of_seq; message } ->
      tag 17;
      put_string b id;
      put_string b action;
      put_int b of_seq;
      put_string b message
  | Events.Shed { id; slug; reason } ->
      tag 18;
      put_string b id;
      put_string b slug;
      put_string b reason
  | Events.Unknown { kind; fields } ->
      tag 0;
      put_string b kind;
      put_uvarint b (List.length fields);
      List.iter
        (fun (name, v) ->
          put_string b name;
          (* Unknown fields may legitimately hold [Null] (unlike the
             known optional slots, whose absence means null), so null is
             encoded explicitly as the JSON text. *)
          put_string b (Json.to_string v))
        fields

let put_body b (e : Events.t) =
  put_int b e.Events.seq;
  put_int b e.Events.run;
  put_int_opt b e.Events.sim;
  put_float b e.Events.wall_s;
  put_payload b e.Events.payload

let encode b e =
  let body = Buffer.create 96 in
  put_body body e;
  put_uvarint b (Buffer.length body);
  Buffer.add_buffer b body

(* --- decoding ------------------------------------------------------------ *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type src = { s : string; limit : int; mutable pos : int }

let get_byte src =
  if src.pos >= src.limit then corrupt "record ends mid-field"
  else begin
    let c = Char.code (String.unsafe_get src.s src.pos) in
    src.pos <- src.pos + 1;
    c
  end

let get_uvarint src =
  let rec go shift acc =
    if shift > Sys.int_size - 7 then corrupt "varint too long"
    else
      let c = get_byte src in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_int src =
  let n = get_uvarint src in
  (n lsr 1) lxor (-(n land 1))

let get_string src =
  let len = get_uvarint src in
  if len < 0 || src.pos + len > src.limit then
    corrupt "string length %d overruns the record" len
  else begin
    let s = String.sub src.s src.pos len in
    src.pos <- src.pos + len;
    s
  end

let get_bool src =
  match get_byte src with
  | 0 -> false
  | 1 -> true
  | c -> corrupt "invalid boolean byte 0x%02x" c

let get_float src =
  if src.pos + 8 > src.limit then corrupt "record ends mid-float"
  else begin
    let bits = ref 0L in
    for i = 7 downto 0 do
      bits :=
        Int64.logor (Int64.shift_left !bits 8)
          (Int64.of_int (Char.code (String.unsafe_get src.s (src.pos + i))))
    done;
    src.pos <- src.pos + 8;
    Int64.float_of_bits !bits
  end

let get_parsed_json src =
  let text = get_string src in
  match Json.parse text with
  | Ok j -> j
  | Error msg -> corrupt "embedded JSON does not parse: %s" msg

let get_json src =
  match get_byte src with
  | 0 -> Json.Null
  | 1 -> get_parsed_json src
  | c -> corrupt "invalid json tag byte 0x%02x" c

let get_int_opt src =
  match get_byte src with
  | 0 -> None
  | 1 -> Some (get_int src)
  | c -> corrupt "invalid option tag byte 0x%02x" c

let get_string_opt src =
  match get_byte src with
  | 0 -> None
  | 1 -> Some (get_string src)
  | c -> corrupt "invalid option tag byte 0x%02x" c

let get_payload src : Events.payload =
  match get_byte src with
  | 1 -> Run_started { label = get_string src }
  | 2 ->
      let quantity = get_int src in
      let terms = get_json src in
      Capacity_joined { quantity; terms }
  | (3 | 4) as t ->
      (* Legacy admitted/rejected records (tags retired, never reused):
         decoded as the same [Unknown] the JSONL reader yields. *)
      let id = get_string src in
      let policy = get_string src in
      let reason = get_string src in
      Events.legacy
        ~kind:(if t = 3 then "admitted" else "rejected")
        ~id ~policy ~reason
  | 5 ->
      let id = get_string src in
      let policy = get_string src in
      let action = get_string src in
      let slug = get_string src in
      let certificate = get_json src in
      (* The cid slot was appended after version 1 shipped; records
         written before it simply end here, so its absence (not just a
         None byte) decodes as None and old WALs keep reading. *)
      let cid = if src.pos < src.limit then get_string_opt src else None in
      Decision { id; policy; action; slug; certificate; cid }
  | 6 -> Completed { id = get_string src }
  | 7 ->
      let id = get_string src in
      let owed = get_int src in
      Killed { id; owed }
  | 8 ->
      let fault = get_string src in
      let quantity = get_int src in
      let terms = get_json src in
      Fault_injected { fault; quantity; terms }
  | 9 ->
      let id = get_string src in
      let quantity = get_int src in
      Commitment_revoked { id; quantity }
  | 10 ->
      let id = get_string src in
      let extra = get_int src in
      let released = get_bool src in
      Commitment_degraded { id; extra; released }
  | 11 ->
      let id = get_string src in
      let rung = get_string src in
      let attempt = get_int src in
      let certificate = get_json src in
      Repaired { id; rung; attempt; certificate }
  | 12 ->
      let id = get_string src in
      let owed = get_int src in
      Preempted { id; owed }
  | 13 ->
      let id = get_string src in
      let reason = get_string src in
      Anomaly { id; reason }
  | 14 ->
      let name = get_string src in
      let id = get_int src in
      let parent = get_int_opt src in
      let depth = get_int src in
      let begin_s = get_float src in
      let duration_s = get_float src in
      Span { name; id; parent; depth; begin_s; duration_s }
  | 15 ->
      let name = get_string src in
      let value = get_float src in
      let family = get_string_opt src in
      Metric_sample { name; value; family }
  | 16 ->
      let name = get_string src in
      let count = get_int src in
      let sum = get_float src in
      let min_v = get_float src in
      let max_v = get_float src in
      let p50 = get_float src in
      let p95 = get_float src in
      let p99 = get_float src in
      Hist_sample { name; count; sum; min_v; max_v; p50; p95; p99 }
  | 17 ->
      let id = get_string src in
      let action = get_string src in
      let of_seq = get_int src in
      let message = get_string src in
      Audit_divergence { id; action; of_seq; message }
  | 18 ->
      let id = get_string src in
      let slug = get_string src in
      let reason = get_string src in
      Shed { id; slug; reason }
  | 0 ->
      let kind = get_string src in
      let n = get_uvarint src in
      (* Field count is bounded by the record length (each field costs
         at least two bytes), so a corrupt count fails fast instead of
         looping. *)
      if n > src.limit - src.pos then
        corrupt "unknown-kind field count %d overruns the record" n
      else
        let fields =
          List.init n (fun _ ->
              let name = get_string src in
              let v = get_parsed_json src in
              (name, v))
        in
        Unknown { kind; fields }
  | t -> corrupt "unknown payload tag 0x%02x" t

let decode_body s ~pos ~limit =
  let src = { s; limit; pos } in
  let seq = get_int src in
  let run = get_int src in
  let sim = get_int_opt src in
  let wall_s = get_float src in
  let payload = get_payload src in
  if src.pos <> limit then
    corrupt "%d trailing bytes in record" (limit - src.pos)
  else { Events.seq; run; sim; wall_s; payload }

let decode_string s ~pos =
  match
    let src = { s; limit = String.length s; pos } in
    let len = get_uvarint src in
    if len > src.limit - src.pos then
      corrupt "record length %d overruns the buffer" len
    else
      let e = decode_body s ~pos:src.pos ~limit:(src.pos + len) in
      (e, src.pos + len)
  with
  | result -> Ok result
  | exception Corrupt msg -> Error msg

let roundtrip e =
  let b = Buffer.create 96 in
  encode b e;
  Result.map fst (decode_string (Buffer.contents b) ~pos:0)

(* --- channel-level reading ----------------------------------------------- *)

let read_header ic =
  let buf = Bytes.create (String.length header) in
  match really_input ic buf 0 (Bytes.length buf) with
  | exception End_of_file -> Error "file too short for a binary trace header"
  | () ->
      let got = Bytes.to_string buf in
      if not (String.length got >= 4 && String.sub got 0 4 = magic) then
        Error "missing ROTB magic"
      else if got.[4] <> header.[4] then
        Error
          (Printf.sprintf "unsupported binary trace version %d (expected %d)"
             (Char.code got.[4]) version)
      else Ok ()

type item =
  | Event of Events.t
  | Eof
  | Cut of int
  | Malformed of string

(* Read exactly [Bytes.length buf - off] more bytes unless EOF lands
   first; returns how far it got. *)
let rec fill ic buf off =
  if off >= Bytes.length buf then off
  else
    match input ic buf off (Bytes.length buf - off) with
    | 0 -> off
    | k -> fill ic buf (off + k)

let read_item ic =
  let rec read_len shift acc nbytes =
    match input_char ic with
    | exception End_of_file -> if nbytes = 0 then `Eof else `Cut nbytes
    | c ->
        let v = Char.code c in
        if shift > Sys.int_size - 7 then `Bad "record length varint too long"
        else
          let acc = acc lor ((v land 0x7f) lsl shift) in
          if v land 0x80 = 0 then `Len (acc, nbytes + 1)
          else read_len (shift + 7) acc (nbytes + 1)
  in
  match read_len 0 0 0 with
  | `Eof -> Eof
  | `Cut n -> Cut n
  | `Bad msg -> Malformed msg
  | `Len (len, prefix) ->
      if len > max_record_bytes then
        Malformed
          (Printf.sprintf "record length %d exceeds the %d-byte cap" len
             max_record_bytes)
      else
        let body = Bytes.create len in
        let got = fill ic body 0 in
        if got < len then Cut (prefix + got)
        else begin
          match
            decode_body (Bytes.unsafe_to_string body) ~pos:0 ~limit:len
          with
          | e -> Event e
          | exception Corrupt msg -> Malformed msg
        end
