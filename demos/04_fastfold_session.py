"""A seeded fast-fold session against the archetype bot field.

Five thousand hands: the strategist profiles anonymous opponents from
their behavior, fires exploits once samples justify them, and the
accounting layer reports the green line, the yellow line, rake, and
rakeback. Re-running with the same seed reproduces the output exactly.
"""
from holdemlab.brain import Brain
from holdemlab.profiles import ProfileStore
from holdemlab.rsm import RsmTable
from holdemlab.session import SessionConfig, run_fastfold_session

config = SessionConfig(hands=5000, seed=1701, trace=False)
store = ProfileStore()
rsm = RsmTable()
brain = Brain(store, rsm_table=rsm, seed=config.seed)

result = run_fastfold_session(config, brain=brain, store=store)

print(result.report.to_text())
print(f"\nshowdowns learned from: {result.showdowns_seen}")
print(f"strength-table deltas applied: {result.learning_deltas}")
print(f"overlay buckets touched: {len(rsm.overlay_to_dict())}")
print(f"hero rebuys: {result.rebuys}")

# The profiler has formed opinions by now; show the sharpest reads.
classified = [
    (pid, store.archetype_of(pid), store.player_stats(pid).hands)
    for pid in store.stats
    if store.archetype_of(pid) != "Unknown" and pid != "hero"
]
classified.sort(key=lambda t: -t[2])
print("\nmost-seen classified opponents:")
for pid, arch, hands in classified[:8]:
    stats = store.player_stats(pid)
    print(f"  {pid}: {arch:<15} vpip {stats.vpip.rate:.2f}  af {stats.af:.1f}  over {hands} hands")
    for exploit in store.search_exploits(pid)[:2]:
        print(f"      exploit: {exploit.pattern} (conviction {exploit.conviction:.2f})")
