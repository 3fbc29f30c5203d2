(* The optional transformation passes over a schedule, composed in their
   one order: sink (which also re-derives the storage windows), fuse,
   trim, then collapse marking.  [Psc.schedule] and the interpreter's
   callee schedules both run this, so a module scheduled under a given
   set of passes is the same flowchart wherever it is scheduled. *)

type scheduled = {
  sc_module : Ps_sem.Elab.emodule;
  sc_result : Schedule.result;
  sc_flowchart : Flowchart.t;
  sc_windows : Schedule.window list;
  sc_sunk : Sink.sunk list;
  sc_merged : int;
  sc_trimmed : int;
  sc_collapsed : int;
}

let schedule ~sink ~fuse ~trim ~collapse em =
  let r = Schedule.schedule em in
  let fc, windows, sunk =
    if sink then
      let s = Sink.apply em r in
      (s.Sink.s_flowchart, s.Sink.s_windows, s.Sink.s_sunk)
    else (r.Schedule.r_flowchart, r.Schedule.r_windows, [])
  in
  let fc, merged = if fuse then Fuse.apply em r.Schedule.r_graph fc else (fc, 0) in
  let fc, trimmed = if trim then Trim.apply em fc else (fc, 0) in
  let fc, collapsed =
    if collapse then
      let fc = Collapse.mark fc in
      (fc, Collapse.count fc)
    else (fc, 0)
  in
  { sc_module = em; sc_result = r; sc_flowchart = fc; sc_windows = windows;
    sc_sunk = sunk; sc_merged = merged; sc_trimmed = trimmed;
    sc_collapsed = collapsed }
