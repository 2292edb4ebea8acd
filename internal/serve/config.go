package serve

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pfd/internal/durable"
)

// EnvPrefix is the prefix of every pfdserved environment variable.
const EnvPrefix = "PFDSERVED_"

// Config is the daemon configuration. Every field maps to one flag and
// one environment variable with the same spelling: the flag name
// uppercased, dashes to underscores, under EnvPrefix (-max-tenants ↔
// PFDSERVED_MAX_TENANTS). Flags win over environment variables, which
// win over the defaults — main applies ApplyEnv before flag.Parse, so
// the precedence falls out of ordinary flag registration.
type Config struct {
	// Addr is the listen address (flag -addr).
	Addr string
	// Rules optionally preloads a ruleset artifact into tenant Tenant
	// at boot (flag -rules; same artifact `pfd discover -rules`
	// writes and pfdstream -rules loads).
	Rules string
	// Tenant names the tenant -rules preloads into (flag -tenant).
	Tenant string
	// Ref optionally names a .pfdt table snapshot replayed into every
	// new engine generation of tenant Tenant before it goes live, so
	// idle eviction or a restart does not lose group consensus (flag
	// -ref; same snapshot format `pfd discover -save-table` writes).
	Ref string
	// IdleTimeout evicts a tenant's engine after this much ingest
	// inactivity, releasing its group state; the
	// ruleset and counters survive and the next ingest lazily restarts
	// the engine (flag -idle; <= 0 disables eviction).
	IdleTimeout time.Duration
	// DrainTimeout bounds how long shutdown waits for in-flight HTTP
	// requests before closing engines anyway (flag -drain).
	DrainTimeout time.Duration
	// MaxTenants caps the registry (flag -max-tenants; <= 0 means
	// unlimited).
	MaxTenants int
	// Ring is how many recent violations each tenant retains for the
	// report/violations endpoints; the total count is always exact
	// (flag -ring; 0 retains none).
	Ring int
	// DataDir, when set, makes tenant state durable: every ruleset
	// install, accepted ingest batch, eviction, and delete is journaled
	// to DataDir/wal.pfdw before it is acknowledged, compacted
	// periodically into per-tenant snapshots, and replayed at boot
	// (flag -data-dir; empty disables durability).
	DataDir string
	// Fsync syncs the journal on every append and snapshots on write,
	// making acknowledged writes power-loss-safe, not just
	// process-crash-safe (flag -fsync).
	Fsync bool
	// Logf, when non-nil, receives operational log lines. Not a flag.
	Logf func(format string, args ...any)

	// Test seams, not flags.
	durFS        durable.FS    // filesystem override (fault injection)
	reopenBase   time.Duration // degraded-mode reopen backoff base
	compactBytes int64         // journal size that triggers compaction
}

// DefaultConfig returns the built-in defaults, before environment
// variables and flags are applied.
func DefaultConfig() Config {
	return Config{
		Addr:         "127.0.0.1:8321",
		Tenant:       "default",
		IdleTimeout:  5 * time.Minute,
		DrainTimeout: 30 * time.Second,
		MaxTenants:   64,
		Ring:         1024,
	}
}

// EnvVar returns the environment variable paired with a flag name:
// EnvVar("max-tenants") == "PFDSERVED_MAX_TENANTS".
func EnvVar(flagName string) string {
	return EnvPrefix + strings.ToUpper(strings.ReplaceAll(flagName, "-", "_"))
}

// RegisterFlags registers every config flag on fs with the current
// field values as defaults, so ApplyEnv-then-RegisterFlags gives flags
// precedence over the environment.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address ($"+EnvVar("addr")+")")
	fs.StringVar(&c.Rules, "rules", c.Rules, "ruleset artifact to preload into -tenant at boot ($"+EnvVar("rules")+")")
	fs.StringVar(&c.Tenant, "tenant", c.Tenant, "tenant the -rules artifact preloads into ($"+EnvVar("tenant")+")")
	fs.StringVar(&c.Ref, "ref", c.Ref, ".pfdt warmup snapshot replayed into -tenant's engine generations ($"+EnvVar("ref")+")")
	fs.DurationVar(&c.IdleTimeout, "idle", c.IdleTimeout, "evict idle tenant engines after this long, <=0 never ($"+EnvVar("idle")+")")
	fs.DurationVar(&c.DrainTimeout, "drain", c.DrainTimeout, "shutdown: how long to wait for in-flight requests ($"+EnvVar("drain")+")")
	fs.IntVar(&c.MaxTenants, "max-tenants", c.MaxTenants, "tenant registry cap, <=0 unlimited ($"+EnvVar("max-tenants")+")")
	fs.IntVar(&c.Ring, "ring", c.Ring, "recent violations retained per tenant ($"+EnvVar("ring")+")")
	fs.StringVar(&c.DataDir, "data-dir", c.DataDir, "journal+snapshot directory for durable tenant state, empty disables ($"+EnvVar("data-dir")+")")
	fs.BoolVar(&c.Fsync, "fsync", c.Fsync, "fsync the journal on every append (power-loss safety) ($"+EnvVar("fsync")+")")
}

// ApplyEnv overlays configuration from environment variables (see
// EnvVar for the naming). lookup is os.LookupEnv in production and a
// map lookup in tests. Malformed values error rather than being
// silently ignored.
func (c *Config) ApplyEnv(lookup func(string) (string, bool)) error {
	str := func(flagName string, dst *string) error {
		if v, ok := lookup(EnvVar(flagName)); ok {
			*dst = v
		}
		return nil
	}
	num := func(flagName string, dst *int) error {
		v, ok := lookup(EnvVar(flagName))
		if !ok {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("serve: $%s=%q: %v", EnvVar(flagName), v, err)
		}
		*dst = n
		return nil
	}
	boolean := func(flagName string, dst *bool) error {
		v, ok := lookup(EnvVar(flagName))
		if !ok {
			return nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("serve: $%s=%q: %v", EnvVar(flagName), v, err)
		}
		*dst = b
		return nil
	}
	dur := func(flagName string, dst *time.Duration) error {
		v, ok := lookup(EnvVar(flagName))
		if !ok {
			return nil
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("serve: $%s=%q: %v", EnvVar(flagName), v, err)
		}
		*dst = d
		return nil
	}
	for _, err := range []error{
		str("addr", &c.Addr),
		str("rules", &c.Rules),
		str("tenant", &c.Tenant),
		str("ref", &c.Ref),
		dur("idle", &c.IdleTimeout),
		dur("drain", &c.DrainTimeout),
		num("max-tenants", &c.MaxTenants),
		num("ring", &c.Ring),
		str("data-dir", &c.DataDir),
		boolean("fsync", &c.Fsync),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// logf logs through Config.Logf when set.
func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
