// Command cyclops-sim runs a Cyclops program on the simulated chip under
// the resident kernel and reports console output and execution statistics.
//
// Usage:
//
//	cyclops-sim [-max N] [-balanced] [-stats] prog.s
//	cyclops-sim [-stats-json stats.json] [-trace-out trace.json] prog.cyc
//	cyclops-sim [-profile-out p.pb.gz] [-sample-every N] [-timeline-out t.csv] prog.s
//
// Assembly sources (any extension but .cyc) are assembled on the fly.
// -trace-out writes a Chrome trace-event timeline (load it in Perfetto or
// chrome://tracing); -stats-json writes the deterministic statistics
// snapshot ("-" = stdout for both). -profile-out attaches the guest
// profiler (deterministic PC sampling every -sample-every simulated
// cycles per thread) and writes a gzipped pprof protobuf for
// `go tool pprof`; -timeline-out writes the interval telemetry timeline
// as CSV (or JSON when the file ends in .json); -metrics-out writes the
// run's headline counters (cycles, instructions, stalls by reason) and
// its host wall time in the same sorted text format cyclops-serve's
// /metrics endpoint speaks. Every output file is
// created up front, so a bad path fails before the simulation runs
// rather than after. -policy selects the issue policy (fine, blocked or
// switchmiss) with -switch-penalty cycles per context switch, and -lat
// sweeps the Table 2 latencies ("miss=48,rmiss=72"). The program runs on
// the block engine; its cycle-exact oracle, the legacy interpreter, is
// reached from tests only.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cyclops/internal/arch"
	"cyclops/internal/asm"
	"cyclops/internal/cli"
	"cyclops/internal/core"
	"cyclops/internal/image"
	"cyclops/internal/job"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/prof"
	"cyclops/internal/sim"
	"cyclops/internal/timing"
)

func main() {
	maxCycles := flag.Uint64("max", 1_000_000_000, "cycle limit (0 = none)")
	balanced := flag.Bool("balanced", false, "use the balanced thread allocation policy")
	stats := flag.Bool("stats", false, "print per-thread, stall-reason and resource statistics")
	statsJSON := flag.String("stats-json", "", "write a deterministic JSON statistics snapshot to this file (- = stdout)")
	trace := flag.Int("trace", 0, "dump the last N issued instructions after the run")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file (- = stdout)")
	profileOut := flag.String("profile-out", "", "write a gzipped pprof profile of the guest program to this file")
	sampleEvery := flag.Uint64("sample-every", 64, "profiler sampling interval in simulated cycles per thread")
	timelineOut := flag.String("timeline-out", "", "write the interval telemetry timeline to this file (.json = JSON, else CSV; - = stdout)")
	timelineEvery := flag.Uint64("timeline-every", 4096, "telemetry timeline interval in simulated cycles")
	metricsOut := flag.String("metrics-out", "", "write run counters (cycles, instructions, stalls by reason) and wall time in /metrics text format to this file (- = stdout)")
	jf := job.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cyclops-sim "+job.Usage+" [-max N] [-balanced] [-stats] [-stats-json F] [-trace N] [-trace-out F] [-profile-out F] [-sample-every N] [-timeline-out F] [-timeline-every N] [-metrics-out F] prog.{s,cyc}")
		os.Exit(2)
	}
	pol, lat, err := jf.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclops-sim:", err)
		os.Exit(2)
	}
	opts := options{
		maxCycles: *maxCycles, balanced: *balanced, stats: *stats,
		statsJSON: *statsJSON, trace: *trace, traceOut: *traceOut,
		profileOut: *profileOut, sampleEvery: *sampleEvery,
		timelineOut: *timelineOut, timelineEvery: *timelineEvery,
		metricsOut: *metricsOut,
		policy:     pol, lat: lat,
	}
	if err := run(flag.Arg(0), opts); err != nil {
		fmt.Fprintln(os.Stderr, "cyclops-sim:", err)
		os.Exit(1)
	}
}

type options struct {
	maxCycles                  uint64
	balanced, stats            bool
	statsJSON, traceOut        string
	trace                      int
	profileOut, timelineOut    string
	metricsOut                 string
	sampleEvery, timelineEvery uint64
	policy                     sim.Policy
	lat                        timing.LatencyModel
}

// traceBufferLen sizes the ring when -trace-out asks for tracing: big
// enough to hold every issue of a typical run, small enough to stay cheap.
const traceBufferLen = 1 << 20

func run(path string, o options) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prog *asm.Program
	if strings.HasSuffix(path, ".cyc") {
		prog, err = image.Decode(data)
	} else {
		prog, err = asm.AssembleNamed(path, string(data))
	}
	if err != nil {
		return err
	}

	// Create every requested output up front: a bad path must fail
	// before the simulation runs, not lose the results after it.
	outStats, err := cli.CreateOut(o.statsJSON)
	if err != nil {
		return err
	}
	outTrace, err := cli.CreateOut(o.traceOut)
	if err != nil {
		return err
	}
	outProfile, err := cli.CreateOut(o.profileOut)
	if err != nil {
		return err
	}
	outTimeline, err := cli.CreateOut(o.timelineOut)
	if err != nil {
		return err
	}
	outMetrics, err := cli.CreateOut(o.metricsOut)
	if err != nil {
		return err
	}

	chip := core.MustNew(o.lat.Apply(arch.Default()))
	k := kernel.New(chip)
	if o.balanced {
		k.Policy = kernel.Balanced
	}
	k.Machine().SetPolicy(o.policy)
	k.Machine().MaxCycles = o.maxCycles
	// One ring serves both consumers, so it is sized by the larger demand:
	// -trace N prints the last N entries of it, -trace-out renders it all.
	ring := o.trace
	if o.traceOut != "" {
		ring = max(ring, traceBufferLen)
	}
	if ring > 0 {
		k.Machine().Trace = sim.NewTraceBuffer(ring)
	}
	var pr *prof.Profile
	var tl *prof.Timeline
	if o.profileOut != "" {
		pr = prof.New(o.sampleEvery)
		k.Machine().AttachProfile(pr)
	}
	if o.timelineOut != "" {
		tl = prof.NewTimeline(o.timelineEvery)
		k.Machine().AttachTimeline(tl)
	}
	if err := k.Boot(prog); err != nil {
		return err
	}
	wallStart := time.Now()
	runErr := k.Run()
	wall := time.Since(wallStart)
	os.Stdout.Write(k.Output)
	if o.trace > 0 {
		fmt.Print(k.Machine().Trace.DumpLast(o.trace))
	}
	fmt.Printf("\n[%d cycles, %d instructions, %.3f ms at 500 MHz]\n",
		k.Machine().Cycle(), k.Machine().TotalInsts(),
		float64(k.Machine().Cycle())/arch.ClockHz*1e3)
	if o.stats {
		printStats(k.Machine(), chip)
	}
	if pr != nil {
		fmt.Printf("profile: %d samples every %d cycles\n", pr.TotalSamples(), pr.Interval)
		pr.Report(prog).WriteText(os.Stdout, 10)
	}
	if err := outStats.Emit(func(w io.Writer) error {
		return k.Machine().Snapshot().WriteJSON(w)
	}); err != nil {
		return err
	}
	if err := outTrace.Emit(k.Machine().ChromeTrace); err != nil {
		return err
	}
	if err := outProfile.Emit(func(w io.Writer) error {
		return pr.WritePprof(w, prog)
	}); err != nil {
		return err
	}
	if err := outTimeline.Emit(func(w io.Writer) error {
		if strings.HasSuffix(o.timelineOut, ".json") {
			return tl.WriteJSON(w)
		}
		return tl.WriteCSV(w)
	}); err != nil {
		return err
	}
	if err := outMetrics.Emit(func(w io.Writer) error {
		return writeRunMetrics(w, k.Machine(), wall)
	}); err != nil {
		return err
	}
	return runErr
}

// writeRunMetrics exports the run's headline numbers in the same sorted
// text format /metrics serves: simulated cycles and instructions, the
// stall-cycle breakdown by reason, and the host wall time as a one-shot
// latency histogram — so a sweep script can scrape simulator runs and a
// daemon identically.
func writeRunMetrics(w io.Writer, m *sim.Machine, wall time.Duration) error {
	reg := obs.NewMetrics()
	reg.Counter("sim_cycles").Add(m.Cycle())
	reg.Counter("sim_insts").Add(m.TotalInsts())
	for r, v := range m.Totals().Stalls {
		reg.Counter("sim_stall_" + obs.StallReason(r).String()).Add(v)
	}
	reg.Histogram("sim_wall_seconds").Observe(wall)
	return reg.WriteText(w)
}

func printStats(m *sim.Machine, chip *core.Chip) {
	fmt.Println("thread  quad     insts       run     stall")
	for _, tu := range m.TUs {
		if tu.Insts == 0 {
			continue
		}
		fmt.Printf("%6d  %4d  %8d  %8d  %8d\n", tu.ID, tu.Quad, tu.Insts, tu.Run, tu.Stall)
	}
	printBreakdown(m.Totals().Stalls)
	printMemWaits(m.Totals().MemWaits)
	printResources(chip.ResourceStats())
	fmt.Print(chip.Utilization(m.Cycle()))
	// Host-side engine activity: what the simulator did, not the chip.
	compiles, flushes := m.BlockStats()
	gs := m.GenericStats()
	ss := m.SchedStats()
	fmt.Printf("host: block_compiles=%d block_flushes=%d generic=%d%s sched_batches=%d sched_units=%d sched_overflow=%d sched_rebuilds=%d parks=%d wakes=%d parked_attempts=%d phantom_cycles=%d mem_backed=%d/%d\n",
		compiles, flushes, gs.Attempts, genericTop(gs), ss.Batches, ss.Units, ss.Overflow, ss.Rebuilds,
		ss.Parks, ss.Wakes, ss.ParkedAttempts, ss.PhantomCycles, chip.Mem.BackedBytes(), chip.Mem.Size())
}

// genericTop names the (at most three) opcodes that took the block
// engine's generic closure most often, as "(syscall=2,mul=1)"; empty when
// nothing did.
func genericTop(gs sim.GenericStats) string {
	ops := gs.Ops()
	if len(ops) == 0 {
		return ""
	}
	var parts []string
	for _, op := range ops[:min(3, len(ops))] {
		parts = append(parts, fmt.Sprintf("%s=%d", op, gs.ByOp[op]))
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// printBreakdown lists the stall cycles by reason, largest contribution
// visible at a glance via the share column.
func printBreakdown(b obs.Breakdown) {
	total := b.Total()
	if total == 0 {
		return
	}
	fmt.Println("stall breakdown:")
	for r, v := range b {
		if v == 0 {
			continue
		}
		fmt.Printf("  %-12s  %10d  %5.1f%%\n", obs.StallReason(r), v, 100*float64(v)/float64(total))
	}
}

// printMemWaits lists the per-access memory-wait attribution by location.
// Unlike the stall breakdown it counts queueing per access, so load waits
// show up here even when the scoreboard reports them as dep stalls.
func printMemWaits(w obs.MemWaits) {
	total := w.Total()
	if total == 0 {
		return
	}
	fmt.Println("memory-wait attribution (per access):")
	for k, v := range w {
		if v == 0 {
			continue
		}
		fmt.Printf("  %-12s  %10d  %5.1f%%\n", obs.MemWaitKind(k), v, 100*float64(v)/float64(total))
	}
}

// printResources shows the busy/conflict telemetry for every resource that
// saw traffic.
func printResources(rs []obs.ResourceStats) {
	header := false
	for _, r := range rs {
		if r.Grants == 0 && r.Busy == 0 {
			continue
		}
		if !header {
			fmt.Println("resource        busy    grants  conflicts      wait")
			header = true
		}
		fmt.Printf("%-9s %2d  %8d  %8d  %9d  %8d\n", r.Kind, r.ID, r.Busy, r.Grants, r.Conflicts, r.WaitCycles)
	}
}
