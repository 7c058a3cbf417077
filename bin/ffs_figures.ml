(* ffs_figures: the experiment driver. With no --only it regenerates
   every table and figure of the paper's evaluation and checks their
   shape against the paper; the ablation studies and the clustering vs
   logging comparison run only when named. *)

open Cmdliner

type experiment =
  | Table1 | Fig1 | Fig2 | Fig3 | Fig4 | Fig5 | Fig6 | Table2 | Checks | Ablations | Lfs

let experiments =
  [
    ("table1", Table1); ("fig1", Fig1); ("fig2", Fig2); ("fig3", Fig3); ("fig4", Fig4);
    ("fig5", Fig5); ("fig6", Fig6); ("table2", Table2); ("checks", Checks);
    ("ablations", Ablations); ("lfs", Lfs);
  ]

(* the figures, Table 2 and the shape checks read the shared replays;
   the rest never do *)
let needs_context = function
  | Fig1 | Fig2 | Fig3 | Fig4 | Fig5 | Fig6 | Table2 | Checks -> true
  | Table1 | Ablations | Lfs -> false

let run days seed jobs quiet csv_dir only =
  let wanted e =
    if only = [] then not (List.mem e [ Ablations; Lfs ]) else List.mem e only
  in
  Par.Pool.with_pool ~jobs @@ fun pool ->
  let timings = Par.Timings.create () in
  let log msg = if not quiet then Fmt.epr "%s@." msg in
  let ctx =
    if List.exists (fun (_, e) -> wanted e && needs_context e) experiments then
      Some (Benchlib.Experiments.build ~days ~seed ~pool ~timings ~log ())
    else None
  in
  let figure e f =
    match ctx with Some ctx when wanted e -> print_string (f ?csv_dir ctx) | _ -> ()
  in
  if wanted Table1 then print_string (Benchlib.Experiments.table1 ());
  figure Fig1 Benchlib.Experiments.fig1;
  figure Fig2 Benchlib.Experiments.fig2;
  figure Fig3 Benchlib.Experiments.fig3;
  figure Fig4 Benchlib.Experiments.fig4;
  figure Fig5 Benchlib.Experiments.fig5;
  figure Fig6 Benchlib.Experiments.fig6;
  figure Table2 Benchlib.Experiments.table2;
  let passed =
    match ctx with
    | Some ctx when wanted Checks ->
        print_endline "\n=== Shape checks vs the paper ===\n";
        let checks = Benchlib.Experiments.shape_checks ctx in
        Fmt.pr "%a@." Benchlib.Paper_expect.pp_checks checks;
        Benchlib.Paper_expect.all_passed checks
    | _ -> true
  in
  (* the studies compare configurations against each other, so they run
     at their own reduced scale regardless of --days *)
  if wanted Ablations then print_string (Benchlib.Ablations.all ~seed ~pool ~timings ());
  if wanted Lfs then print_string (Benchlib.Lfs_compare.report ~seed ~pool ~timings ());
  Common.print_timings ~quiet timings;
  if not passed then exit 1

let cmd =
  let csv_dir =
    Common.out_term ~extra_names:[ "csv-dir" ] ~docv:"DIR"
      ~doc:"Write each figure's data as CSV into $(docv)." ()
  in
  let only =
    Arg.(value & opt_all (enum experiments) []
         & info [ "only" ] ~docv:"EXP"
             ~doc:(Fmt.str
                     "Run only the named experiment, %s; repeatable. Without it \
                      every table, figure and shape check runs; $(b,ablations) and \
                      $(b,lfs) run only when named, at their own 90- and 60-day scale."
                     (Arg.doc_alts_enum experiments)))
  in
  let term =
    Term.(const run $ Common.days_term $ Common.seed_term $ Common.jobs_term
          $ Common.quiet_term $ csv_dir $ only)
  in
  Cmd.v
    (Cmd.info "ffs_figures"
       ~doc:"Regenerate the tables and figures of Smith & Seltzer (USENIX 1996)")
    term

let () = exit (Cmd.eval cmd)
