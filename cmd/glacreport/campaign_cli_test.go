package main

import (
	"testing"

	"repro/internal/cliutil"
)

// The zero-input campaign merge must be a usage error (exit 2 with the
// usage line), never a silently successful empty artifact set.
func TestCampaignMergeZeroDirsIsUsageError(t *testing.T) {
	err := mergeCampaign(t.TempDir(), nil)
	if err == nil {
		t.Fatal("campaign merge of zero shard directories succeeded")
	}
	if !cliutil.IsUsage(err) {
		t.Fatalf("campaign merge of zero shard directories returned %v, want a usage error", err)
	}
}

// -remote / -resume are exclusive with -shard, and campaign-only flags
// still travel through the usage-error path.
func TestCampaignModeFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		shard   string
		remote  string
		resume  bool
		cache   string
		noCache bool
		recDir  string
		set     map[string]bool
	}{
		{"shard+remote", "0/2", "h:1", false, "", false, "", map[string]bool{"shard": true, "remote": true}},
		{"shard+resume", "0/2", "", true, "", false, "", map[string]bool{"shard": true, "resume": true}},
		{"workers+remote", "", "h:1", false, "", false, "", map[string]bool{"workers": true, "remote": true}},
		{"empty remote list", "", " , ", false, "", false, "", map[string]bool{"remote": true}},
		{"duplicate workers", "", "h:1,h:1/", false, "", false, "", map[string]bool{"remote": true}},
		{"cache+remote", "", "h:1", false, "/tmp/c", false, "", map[string]bool{"cache": true, "remote": true}},
		{"cache+no-cache", "", "", false, "/tmp/c", true, "", map[string]bool{"cache": true, "no-cache": true}},
		{"record-dir+remote", "", "h:1", false, "", false, "/tmp/r", map[string]bool{"remote": true, "record-dir": true}},
		{"record-dir+resume", "", "", true, "", false, "/tmp/r", map[string]bool{"resume": true, "record-dir": true}},
		{"record-dir+cache", "", "", false, "/tmp/c", false, "/tmp/r", map[string]bool{"cache": true, "record-dir": true}},
	}
	for _, c := range cases {
		ef := cliutil.ExecFlags{Set: c.set, Remote: c.remote, Cache: c.cache, NoCache: c.noCache, RecordDir: c.recDir}
		err := runCampaignMode(t.TempDir(), 1, 1, 0, c.shard, false, c.resume, ef, nil)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !cliutil.IsUsage(err) {
			t.Errorf("%s: returned %v, want a usage error", c.name, err)
		}
	}
}
