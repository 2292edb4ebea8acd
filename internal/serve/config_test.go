package serve

import (
	"flag"
	"testing"
	"time"
)

func lookupIn(env map[string]string) func(string) (string, bool) {
	return func(key string) (string, bool) {
		v, ok := env[key]
		return v, ok
	}
}

func TestEnvVarNaming(t *testing.T) {
	for flagName, want := range map[string]string{
		"addr":        "PFDSERVED_ADDR",
		"max-tenants": "PFDSERVED_MAX_TENANTS",
		"idle":        "PFDSERVED_IDLE",
	} {
		if got := EnvVar(flagName); got != want {
			t.Errorf("EnvVar(%q) = %q, want %q", flagName, got, want)
		}
	}
}

func TestApplyEnv(t *testing.T) {
	cfg := DefaultConfig()
	err := cfg.ApplyEnv(lookupIn(map[string]string{
		"PFDSERVED_ADDR":        "0.0.0.0:9000",
		"PFDSERVED_RING":        "4",
		"PFDSERVED_IDLE":        "90s",
		"PFDSERVED_MAX_TENANTS": "7",
		"UNRELATED":             "ignored",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "0.0.0.0:9000" || cfg.Ring != 4 || cfg.IdleTimeout != 90*time.Second || cfg.MaxTenants != 7 {
		t.Fatalf("env not applied: %+v", cfg)
	}
	// Untouched fields keep their defaults.
	if cfg.DrainTimeout != 30*time.Second || cfg.Tenant != "default" {
		t.Fatalf("defaults clobbered: %+v", cfg)
	}
}

func TestApplyEnvMalformed(t *testing.T) {
	for _, env := range []map[string]string{
		{"PFDSERVED_RING": "four"},
		{"PFDSERVED_IDLE": "soon"},
		{"PFDSERVED_MAX_TENANTS": "1e3"},
	} {
		cfg := DefaultConfig()
		if err := cfg.ApplyEnv(lookupIn(env)); err == nil {
			t.Errorf("ApplyEnv(%v) silently accepted a malformed value", env)
		}
	}
}

// TestFlagsBeatEnv pins the precedence contract: defaults < env <
// flags, achieved by applying the environment before registering the
// flags (so env values become the flag defaults).
func TestFlagsBeatEnv(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.ApplyEnv(lookupIn(map[string]string{
		"PFDSERVED_ADDR":        "env:1",
		"PFDSERVED_MAX_TENANTS": "2",
		"PFDSERVED_RING":        "99",
	})); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse([]string{"-addr", "flag:2", "-max-tenants", "8"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "flag:2" || cfg.MaxTenants != 8 {
		t.Fatalf("flags did not beat env: %+v", cfg)
	}
	if cfg.Ring != 99 {
		t.Fatalf("env without a flag lost: Ring = %d, want 99", cfg.Ring)
	}
	if cfg.IdleTimeout != DefaultConfig().IdleTimeout {
		t.Fatalf("default lost: %+v", cfg)
	}
}
