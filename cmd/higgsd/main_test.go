package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parse runs higgsd's flag parsing and validation over args.
func parse(t *testing.T, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("higgsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: flag syntax: %v", args, err)
	}
	return o.validate()
}

// TestFlagsRejected: every invalid flag value or combination is refused at
// startup with its message.
func TestFlagsRejected(t *testing.T) {
	const from = "http://127.0.0.1:9090"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ingest-mode", "bogus"}, "-ingest-mode: "},
		{[]string{"-queue-depth", "0"}, "-queue-depth 0, need ≥ 1"},
		{[]string{"-snapshot-interval", "-1s", "-wal-dir", "w"}, "-snapshot-interval -1s, need ≥ 0"},
		{[]string{"-wal-sync-interval", "-1s"}, "-wal-sync-interval -1s, need ≥ 0"},
		{[]string{"-wal-dir", "w", "-load", "s.higgs"}, "-load conflicts with -wal-dir (the WAL directory owns its snapshot; remove -load)"},
		{[]string{"-retention-window", "-1s"}, "-retention-window -1s, need ≥ 0"},
		{[]string{"-retention-window", "1h", "-retention-interval", "-1s"}, "-retention-interval -1s, need ≥ 0"},
		{[]string{"-retention-interval", "1m"}, "-retention-interval requires -retention-window"},
		{[]string{"-replication-addr", ":9090"}, "-replication-addr requires -wal-dir (the feed ships the write-ahead log)"},
		{[]string{"-replica-dir", "r"}, "-replica-dir requires -replicate-from"},
		{[]string{"-replicate-from", from, "-wal-dir", "w"}, "-replicate-from conflicts with -wal-dir (a follower's durable state is its primary; use -replica-dir for the local cache)"},
		{[]string{"-replicate-from", from, "-load", "s.higgs"}, "-replicate-from conflicts with -load (the boot snapshot comes from the primary)"},
		{[]string{"-replicate-from", from, "-shards", "2"}, "-replicate-from conflicts with -shards (the primary's snapshot fixes the shard count)"},
		{[]string{"-replicate-from", from, "-retention-window", "1h"}, "-replicate-from conflicts with -retention-window (retention runs on the primary and replicates as expire records)"},
		// -replication-addr needs -wal-dir, which a follower refuses, so
		// chaining always trips one of those two checks first.
		{[]string{"-replicate-from", from, "-replication-addr", ":9091"}, "-replication-addr requires -wal-dir (the feed ships the write-ahead log)"},
		{[]string{"-replicate-from", from, "-replication-addr", ":9091", "-wal-dir", "w"}, "-replicate-from conflicts with -wal-dir"},
		{[]string{"-snapshot-interval", "1s"}, "-snapshot-interval requires -wal-dir (or -replica-dir on a follower)"},
		{[]string{"-replicate-from", from, "-snapshot-interval", "1s"}, "-snapshot-interval requires -wal-dir (or -replica-dir on a follower)"},
		{[]string{"-cache-bytes", "-1"}, "-cache-bytes -1, need ≥ 0"},
		{[]string{"-admit-heavy", "-1"}, "-admit-heavy -1, need ≥ 0"},
		{[]string{"-admit-rate", "-1"}, "-admit-rate -1, need ≥ 0"},
		{[]string{"-analytics-topk", "8"}, "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{[]string{"-analytics-epoch", "1m"}, "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{[]string{"-analytics-burst", "2"}, "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{[]string{"-analytics", "-analytics-topk", "-1"}, "-analytics-topk -1, need ≥ 0"},
		{[]string{"-analytics", "-analytics-epoch", "500ms"}, "-analytics-epoch 500ms, need whole seconds ≥ 1s (or 0 for the default)"},
		{[]string{"-analytics", "-analytics-burst", "0.5"}, "-analytics-burst 0.5, need ≥ 1 (or 0 for the default)"},
	} {
		err := parse(t, c.args...)
		if err == nil {
			t.Errorf("%v: accepted, want %q", c.args, c.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%v: error %q, want %q", c.args, err, c.want)
		}
	}
}

// TestFlagsAccepted: the benchmark's flag set and a follower's flag set
// pass validation.
func TestFlagsAccepted(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-addr", "127.0.0.1:0", "-shards", "2", "-wal-dir", "w", "-ingest-mode", "auto",
			"-snapshot-interval", "1m0s", "-analytics", "-admit-heavy", "2",
			"-cache-bytes", "16777216", "-pprof-addr", "127.0.0.1:0"},
		{"-replicate-from", "http://127.0.0.1:9090", "-replica-dir", "r",
			"-cache-bytes", "1048576", "-analytics"},
		{"-replicate-from", "http://127.0.0.1:9090", "-replica-dir", "r", "-snapshot-interval", "1s"},
		{"-wal-dir", "w", "-replication-addr", ":9090", "-retention-window", "24h", "-retention-interval", "1m"},
		{"-analytics", "-analytics-topk", "256", "-analytics-epoch", "30s", "-analytics-burst", "8"},
	} {
		if err := parse(t, args...); err != nil {
			t.Errorf("%v: rejected: %v", args, err)
		}
	}
}
