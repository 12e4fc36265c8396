# The deterministic benches, chaos drills and examples that the golden
# gate diffs (ci/golden.sh) and the wall-clock ledger times (ci/wall.sh);
# ci/sanitize.sh runs every drill under ASan/UBSan. Sourced, not run.
#
# micro_core and scale_sweep are left out: they print wall-clock numbers
# that differ from run to run.
# shellcheck shell=bash
# shellcheck disable=SC2034  # the arrays are read by the sourcing script
benches=(
  ablation_readahead ablation_striping ablation_wan_transport
  fig2_sc02_fcip fig5_sc03_native fig8_sc04_grid fig11_scaling
  shard_sweep
  tab_anl_production tab_auth_modes tab_deisa tab_future_upgrades
  tab_hsm_futures tab_paradigm_gfs_vs_ftp tab_sc04_local_san
  chaos_soak
)
scenarios=(crash_dirty_writer manager_crash shard_crash site_outage nsd_loss)
examples=(quickstart sc02_wan_san enzo_teragrid deisa_federation nvo_archive)
