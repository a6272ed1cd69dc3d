open Import

type step_allocation = {
  step_index : int;
  subwindow : Interval.t;
  allocation : Resource_set.t;
}

type schedule = {
  window : Interval.t;
  breakpoints : Time.t list;
  steps : step_allocation list;
  reservation : Resource_set.t;
}

let single_action = Requirement.satisfied_simple

(* Earliest tick by which every amount of [step] can be fully supplied when
   consuming greedily from [u]. *)
let step_finish theta ~u ~stop step =
  match Interval.make ~start:u ~stop with
  | None -> None
  | Some window ->
      List.fold_left
        (fun acc (a : Requirement.amount) ->
          match acc with
          | None -> None
          | Some finish -> (
              let profile = Resource_set.find a.Requirement.ltype theta in
              match
                Profile.completion_time profile ~window ~quantity:a.Requirement.quantity
              with
              | None -> None
              | Some f -> Some (Time.max finish f)))
        (Some u) step

(* Concrete earliest-fit allocation of one step inside its subwindow. *)
let step_allocation theta ~index ~subwindow step =
  let allocation =
    List.fold_left
      (fun acc (a : Requirement.amount) ->
        let profile = Resource_set.find a.Requirement.ltype theta in
        match
          Profile.allocate profile ~window:subwindow ~quantity:a.Requirement.quantity
        with
        | Some got ->
            Resource_set.add_profile a.Requirement.ltype got acc
        | None ->
            (* [subwindow] extends past this amount's completion time, so
               consumption cannot fail. *)
            assert false)
      Resource_set.empty step
  in
  { step_index = index; subwindow; allocation }

let m_sequential = Rota_obs.Metrics.counter "accommodation/schedule_sequential"
let m_sequential_s =
  Rota_obs.Metrics.histogram "accommodation/schedule_sequential_s"
let m_concurrent = Rota_obs.Metrics.counter "accommodation/schedule_concurrent"
let m_concurrent_s =
  Rota_obs.Metrics.histogram "accommodation/schedule_concurrent_s"

let schedule_sequential_uninstrumented theta (c : Requirement.complex) =
  let stop = Interval.stop c.Requirement.window in
  let rec place u index placed = function
    | [] -> Some (List.rev placed)
    | step :: rest -> (
        match step_finish theta ~u ~stop step with
        | None -> None
        | Some finish ->
            (* Steps are normalized to positive demand, so [finish > u] and
               subwindows are non-empty: breakpoints strictly increase. *)
            let subwindow = Interval.of_pair u finish in
            let alloc = step_allocation theta ~index ~subwindow step in
            place finish (index + 1) (alloc :: placed) rest)
  in
  match place (Interval.start c.Requirement.window) 0 [] c.Requirement.steps with
  | None -> None
  | Some steps ->
      let breakpoints =
        match steps with
        | [] -> []
        | _ :: rest -> List.map (fun s -> Interval.start s.subwindow) rest
      in
      let reservation =
        List.fold_left
          (fun acc s -> Resource_set.union acc s.allocation)
          Resource_set.empty steps
      in
      Some { window = c.Requirement.window; breakpoints; steps; reservation }

let schedule_sequential theta c =
  if Rota_obs.Metrics.enabled () then begin
    Rota_obs.Metrics.incr m_sequential;
    Rota_obs.Metrics.time m_sequential_s (fun () ->
        schedule_sequential_uninstrumented theta c)
  end
  else schedule_sequential_uninstrumented theta c

let sequential_feasible theta c = Option.is_some (schedule_sequential theta c)

let sequential_feasible_exhaustive theta (c : Requirement.complex) =
  let stop = Interval.stop c.Requirement.window in
  let satisfied_within step window =
    List.for_all
      (fun (a : Requirement.amount) ->
        Resource_set.integrate theta a.Requirement.ltype window
        >= a.Requirement.quantity)
      step
  in
  (* Try every strictly increasing tuple of breakpoints. *)
  let rec search u = function
    | [] -> u <= stop
    | [ last ] -> (
        match Interval.make ~start:u ~stop with
        | None -> false
        | Some window -> satisfied_within last window)
    | step :: rest ->
        let rec try_breakpoint t =
          if t > stop then false
          else
            let ok =
              match Interval.make ~start:u ~stop:t with
              | None -> false
              | Some window -> satisfied_within step window
            in
            if ok && search t rest then true else try_breakpoint (Time.succ t)
        in
        try_breakpoint (Time.succ u)
  in
  search (Interval.start c.Requirement.window) c.Requirement.steps

let m_check = Rota_obs.Metrics.counter "accommodation/check"
let m_check_s = Rota_obs.Metrics.histogram "accommodation/check_s"

let check_schedule_uninstrumented theta (c : Requirement.complex) schedule =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  let rec check_steps u expected_index steps
      (spec_steps : Requirement.step list) =
    match (steps, spec_steps) with
    | [], [] ->
        if u <= Interval.stop c.Requirement.window then Ok ()
        else fail "schedule overruns the window"
    | [], _ :: _ -> fail "schedule has fewer steps than the requirement"
    | _ :: _, [] -> fail "schedule has more steps than the requirement"
    | alloc :: steps, spec :: spec_steps ->
        if alloc.step_index <> expected_index then
          fail "step indices out of order at %d" expected_index
        else if not (Time.equal (Interval.start alloc.subwindow) u) then
          fail "subwindow of step %d does not start where the previous ended"
            expected_index
        else if
          not (Interval.subset alloc.subwindow c.Requirement.window)
        then fail "subwindow of step %d escapes the window" expected_index
        else if not (Resource_set.within alloc.allocation alloc.subwindow)
        then fail "allocation of step %d spills outside its subwindow" expected_index
        else
          let covered =
            List.for_all
              (fun (a : Requirement.amount) ->
                Resource_set.integrate alloc.allocation a.Requirement.ltype
                  alloc.subwindow
                >= a.Requirement.quantity)
              spec
          in
          if not covered then
            fail "allocation of step %d does not cover its amounts"
              expected_index
          else
            check_steps (Interval.stop alloc.subwindow) (expected_index + 1)
              steps spec_steps
  in
  if not (Interval.equal schedule.window c.Requirement.window) then
    fail "schedule window differs from the requirement window"
  else if not (Resource_set.dominates theta schedule.reservation) then
    fail "reservation is not covered by availability"
  else
    match
      check_steps
        (Interval.start c.Requirement.window)
        0 schedule.steps c.Requirement.steps
    with
    | Error _ as e -> e
    | Ok () ->
        let rebuilt =
          List.fold_left
            (fun acc s -> Resource_set.union acc s.allocation)
            Resource_set.empty schedule.steps
        in
        if Resource_set.equal rebuilt schedule.reservation then Ok ()
        else fail "reservation differs from the union of step allocations"

(* The checker is the audit watchdog's hot path: every certified
   decision re-runs it live, so its latency decides the watchdog's lag. *)
let check_schedule theta c schedule =
  if Rota_obs.Metrics.enabled () then begin
    Rota_obs.Metrics.incr m_check;
    Rota_obs.Metrics.time m_check_s (fun () ->
        check_schedule_uninstrumented theta c schedule)
  end
  else check_schedule_uninstrumented theta c schedule

module Order = struct
  type t = Given | Most_work_first | Least_work_first

  let all = [ Given; Most_work_first; Least_work_first ]

  let pp ppf = function
    | Given -> Format.pp_print_string ppf "given"
    | Most_work_first -> Format.pp_print_string ppf "most-work-first"
    | Least_work_first -> Format.pp_print_string ppf "least-work-first"
end

let order_parts order parts =
  let indexed = List.mapi (fun i p -> (i, p)) parts in
  let by_work direction =
    List.stable_sort
      (fun (_, a) (_, b) ->
        direction
        * Int.compare
            (Requirement.total_quantity_complex a)
            (Requirement.total_quantity_complex b))
      indexed
  in
  match (order : Order.t) with
  | Given -> indexed
  | Most_work_first -> by_work (-1)
  | Least_work_first -> by_work 1

let schedule_concurrent_uninstrumented ?(order = Order.Most_work_first) theta
    (conc : Requirement.concurrent) =
  match conc.Requirement.parts with
  | [ part ] -> (
      (* One part — the dominant shape on the admission path (a
         computation with a single program) — needs no ordering pass,
         no residual threading, and no re-sort. *)
      match schedule_sequential theta part with
      | None -> None
      | Some schedule -> Some [ schedule ])
  | parts ->
  let rec place residual acc = function
    | [] -> Some acc
    | (i, part) :: rest -> (
        match schedule_sequential residual part with
        | None -> None
        | Some schedule ->
            if rest = [] then Some ((i, schedule) :: acc)
            else (
              (* Later parts schedule on what this one left over. *)
              match Resource_set.diff residual schedule.reservation with
              | Error _ ->
                  (* The reservation was carved out of [residual]. *)
                  assert false
              | Ok residual -> place residual ((i, schedule) :: acc) rest))
  in
  match place theta [] (order_parts order parts) with
  | None -> None
  | Some indexed ->
      (* Restore original part order. *)
      Some
        (indexed
        |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
        |> List.map snd)

let schedule_concurrent ?order theta conc =
  Rota_obs.Tracer.with_span "accommodation/schedule-concurrent" (fun () ->
      if Rota_obs.Metrics.enabled () then begin
        Rota_obs.Metrics.incr m_concurrent;
        Rota_obs.Metrics.time m_concurrent_s (fun () ->
            schedule_concurrent_uninstrumented ?order theta conc)
      end
      else schedule_concurrent_uninstrumented ?order theta conc)

let concurrent_feasible ?(try_orders = Order.all) theta conc =
  List.exists
    (fun order -> Option.is_some (schedule_concurrent ~order theta conc))
    try_orders

let meets_deadline ?merge model theta computation =
  let conc = Computation.to_concurrent ?merge model computation in
  match schedule_concurrent theta conc with
  | None -> None
  | Some schedules ->
      Some
        (List.map2
           (fun (p : Program.t) schedule -> (p.Program.name, schedule))
           computation.Computation.programs schedules)

let reservation_of_schedules schedules =
  List.fold_left
    (fun acc s -> Resource_set.union acc s.reservation)
    Resource_set.empty schedules

let pp_schedule ppf s =
  let pp_step ppf a =
    Format.fprintf ppf "step %d on %a: %a" a.step_index Interval.pp a.subwindow
      Resource_set.pp a.allocation
  in
  Format.fprintf ppf "@[<v>schedule on %a@ breakpoints: [%a]@ %a@]" Interval.pp
    s.window
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Time.pp)
    s.breakpoints
    (Format.pp_print_list pp_step)
    s.steps
