open Import
module Live = Live

type divergence = { seq : int; run : int; id : string; message : string }

type report = {
  events : int;
  runs : int;
  decisions : int;
  verified : int;
  skipped : int;
  divergences : divergence list;
  suppressed : int;
  truncated : bool;
}

let ok r = r.divergences = [] && r.suppressed = 0

(* --- the thin driver ------------------------------------------------------- *)

(* Everything file-shaped goes through here: one [Live] auditor stepped
   over the trace in file order.  [audit_file] and [explain_file] are
   folds over the decision outcomes — the live watchdog runs the exact
   same [Live.step], so offline and in-engine verdicts cannot drift. *)
let fold_decisions path ~init ~f =
  let live = Live.create () in
  match
    Trace_reader.fold_file path ~init ~f:(fun acc e ->
        match Live.step live e with Some o -> f acc o | None -> acc)
  with
  | Error e -> Error e
  | Ok (acc, tail) -> Ok (acc, live, tail)

let truncated = function
  | Trace_reader.Complete -> false
  | Trace_reader.Truncated _ -> true

let audit_file ?(max_divergences = 100) path =
  let on_outcome (kept, divs, suppressed) (o : Live.outcome) =
    match o.Live.verdict with
    | Live.Verified | Live.Skipped _ -> (kept, divs, suppressed)
    | Live.Diverged msgs ->
        List.fold_left
          (fun (kept, divs, suppressed) message ->
            if kept < max_divergences then
              ( kept + 1,
                { seq = o.Live.seq; run = o.Live.run; id = o.Live.id; message }
                :: divs,
                suppressed )
            else (kept, divs, suppressed + 1))
          (kept, divs, suppressed) msgs
  in
  match fold_decisions path ~init:(0, [], 0) ~f:on_outcome with
  | Error e -> Error e
  | Ok ((_, divs, suppressed), live, tail) ->
      Ok
        {
          events = Live.events live;
          runs = Live.runs live;
          decisions = Live.decisions live;
          verified = Live.verified live;
          skipped = Live.skipped live;
          divergences = List.rev divs;
          suppressed;
          truncated = truncated tail;
        }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d events across %d runs: %d decisions, %d verified, %d skipped, %d \
     divergent%s"
    r.events r.runs r.decisions r.verified r.skipped
    (List.length r.divergences + r.suppressed)
    (if ok r then
       if r.skipped = 0 && r.decisions > 0 then
         " -- every decision re-verified"
       else ""
     else "");
  List.iter
    (fun d ->
      Format.fprintf ppf "@ seq %d (run %d, %s): %s" d.seq d.run d.id d.message)
    r.divergences;
  if r.suppressed > 0 then
    Format.fprintf ppf "@ ... and %d more divergences" r.suppressed;
  if r.truncated then
    Format.fprintf ppf
      "@ note: trace ends mid-line (crash-interrupted write); audited up to \
       the cut";
  Format.fprintf ppf "@]"

let explain_outcome (o : Live.outcome) =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "@[<v>run %d seq %d t%s: %s %s [%s]@ " o.Live.run
    o.Live.seq
    (match o.Live.sim with Some t -> string_of_int t | None -> "-")
    o.Live.action o.Live.id o.Live.slug;
  (match o.Live.certificate with
  | Json.Null -> Format.fprintf ppf "no certificate recorded"
  | cj -> (
      match Certificate.of_json cj with
      | Ok cert -> Certificate.pp ppf cert
      | Error m -> Format.fprintf ppf "unparseable certificate: %s" m));
  (match o.Live.verdict with
  | Live.Verified ->
      Format.fprintf ppf "@ auditor: verified against the reconstructed ledger"
  | Live.Skipped reason -> Format.fprintf ppf "@ auditor: skipped (%s)" reason
  | Live.Diverged msgs ->
      List.iter
        (fun m -> Format.fprintf ppf "@ auditor: DIVERGENCE: %s" m)
        msgs);
  Format.fprintf ppf "@]@?";
  Buffer.contents b

let explain_file path ~id:target =
  match
    fold_decisions path ~init:[] ~f:(fun blocks (o : Live.outcome) ->
        if String.equal o.Live.id target then explain_outcome o :: blocks
        else blocks)
  with
  | Error e -> Error e
  | Ok (blocks, _, _) -> Ok (List.rev blocks)
