type shape_check = { name : string; passed : bool; detail : string }

let pp_checks ppf checks =
  List.iter
    (fun c ->
      Fmt.pf ppf "  [%s] %s — %s@." (if c.passed then "PASS" else "FAIL") c.name c.detail)
    checks

let all_passed = List.for_all (fun c -> c.passed)

let fig1_real_end_score = 0.68
let fig1_simulated_end_score = 0.77
let fig2_ffs_day1 = 0.924
let fig2_realloc_day1 = 0.950
let fig2_ffs_end = 0.766
let fig2_realloc_end = 0.899
let fig2_improvement_pct = 56.8
let fig4_read_96k_gain_pct = 58.0
let fig4_write_64k_gain_pct = 44.0
let fig4_raw_read_mb_s = 5.4
let fig4_raw_write_mb_s = 2.6
let table2_ffs_layout = 0.80
let table2_realloc_layout = 0.96
let table2_ffs_read_mb_s = 1.65
let table2_realloc_read_mb_s = 2.18
let table2_ffs_write_mb_s = 1.04
let table2_realloc_write_mb_s = 1.25
let table2_read_gain_pct = 32.0
let table2_write_gain_pct = 20.0
