(** The paper's reported numbers, for side-by-side reporting and shape
    checks. These are expectations about {e shape} (who wins, roughly by
    how much), not absolute targets: our substrate is a calibrated
    simulator, not the authors' hardware.

    Figure 1: real end score 0.68, simulated 0.77. Figure 2: day-1
    scores 0.924 (FFS) / 0.950 (realloc), end-of-run 0.766 / 0.899, a
    56.8% reduction in non-optimally allocated blocks. Figure 4: +58%
    reads at 96 KB, +44% writes at 64 KB, +25% writes for large files;
    raw disk roughly 5.4 / 2.6 MB/s. Table 2: layout 0.80 vs 0.96, reads
    1.65 vs 2.18 MB/s (+32%), writes 1.04 vs 1.25 MB/s (+20%). *)

type shape_check = { name : string; passed : bool; detail : string }

val pp_checks : Format.formatter -> shape_check list -> unit
val all_passed : shape_check list -> bool

(* Figure 1 *)
val fig1_real_end_score : float
val fig1_simulated_end_score : float

(* Figure 2 *)
val fig2_ffs_day1 : float
val fig2_realloc_day1 : float
val fig2_ffs_end : float
val fig2_realloc_end : float
val fig2_improvement_pct : float

(* Figure 4 *)
val fig4_read_96k_gain_pct : float
val fig4_write_64k_gain_pct : float
val fig4_raw_read_mb_s : float
val fig4_raw_write_mb_s : float

(* Table 2 *)
val table2_ffs_layout : float
val table2_realloc_layout : float
val table2_ffs_read_mb_s : float
val table2_realloc_read_mb_s : float
val table2_ffs_write_mb_s : float
val table2_realloc_write_mb_s : float
val table2_read_gain_pct : float
val table2_write_gain_pct : float
