module Tuple = Relational.Tuple
module Query = Logic.Query
module Classes = Incomplete.Classes
module Support = Incomplete.Support

let witness inst q a b =
  if Tuple.arity a <> Query.arity q || Tuple.arity b <> Query.arity q then
    invalid_arg "Sep: tuple arity does not match the query"
  else begin
    Obs.Trace.span "sep.witness" @@ fun () ->
    let sa = Query.instantiate q a and sb = Query.instantiate q b in
    let db = Support.kernel_db inst in
    let { Support.anchor_set; classes; _ } = Support.space db [ sa; sb ] in
    (* Both sentences compiled once for the whole class sweep. *)
    let ca = Support.checker db sa and cb = Support.checker db sb in
    List.find_map
      (fun cls ->
        let v = Classes.representative ~anchor_set cls in
        if Support.check ca v && not (Support.check cb v) then Some v
        else None)
      classes
  end

let sep inst q a b = Option.is_some (witness inst q a b)
