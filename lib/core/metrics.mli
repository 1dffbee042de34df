(** Measurement helpers shared by the experiments: exactly the
    quantities the paper's tables and figures report. *)

(** [link_utilization solution graph ~edges] is load/capacity for each
    listed physical edge (the figures restrict to links covered by at
    least one overlay route). *)
val link_utilization : Solution.t -> Graph.t -> edges:int array -> float array

(** [utilization_curve solution graph ~edges] is the paper's
    "utilization ratio distribution": utilizations sorted descending
    against normalized edge rank (Figs. 4, 9, 14). *)
val utilization_curve : Solution.t -> Graph.t -> edges:int array -> Cdf.t

(** [tree_rate_curve solution slot] is the "accumulative rate
    distribution" over session [slot]'s trees (Figs. 2, 3, 7, 8, 17). *)
val tree_rate_curve : Solution.t -> int -> Cdf.t

(** [covered_edges overlays] is the union of physical edges used by any
    session's routes, sorted. *)
val covered_edges : Overlay.t array -> int array

(** [edges_per_node overlays] is Fig. 13's statistic: distinct covered
    physical edges divided by the total number of session members. *)
val edges_per_node : Overlay.t array -> float

(** [fairness_index solution] is Jain's index over session rates. *)
val fairness_index : Solution.t -> float

(** [throughput_ratio a b] is overall-throughput(a) / overall-throughput(b)
    (0 when [b] has zero throughput). *)
val throughput_ratio : Solution.t -> Solution.t -> float

(** [aggregate_replicated_rates solution ~original_of_slot ~originals]
    folds replica sessions back onto their source sessions and returns
    per-original total rates — the bookkeeping for the online
    experiment of Sec. IV-D. *)
val aggregate_replicated_rates :
  Solution.t -> original_of_slot:int array -> originals:int -> float array

(** [aggregate_replicated_trees solution ~original_of_slot ~originals]
    counts distinct trees per original session across its replicas
    (a tree selected by several replicas counts once, as in Fig. 6):
    trees are told apart by {!Otree.equal}. *)
val aggregate_replicated_trees :
  Solution.t -> original_of_slot:int array -> originals:int -> int array
