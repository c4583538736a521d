package engine

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestValidateRejections pins every central flag-validation rule: each
// out-of-range value is rejected with an error naming the offending
// flag, regardless of which command supplied it.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"jobs zero", func(c *Config) { c.Jobs = 0 }, "-j must be >= 1"},
		{"jobs negative", func(c *Config) { c.Jobs = -3 }, "-j must be >= 1"},
		{"rate negative", func(c *Config) { c.Rate = -1 }, "-rate must be >= 0"},
		{"burst negative", func(c *Config) { c.Burst = -2 }, "-burst must be >= 0"},
		{"sample below zero", func(c *Config) { c.TraceSample = -0.1 }, "-trace-sample must be in [0,1]"},
		{"sample above one", func(c *Config) { c.TraceSample = 1.5 }, "-trace-sample must be in [0,1]"},
		{"poll zero", func(c *Config) { c.Poll = 0 }, "-poll must be > 0"},
		{"watch without src", func(c *Config) { c.Watch = true; c.Srcs = nil }, "-watch requires -src"},
		{"unknown catalog", func(c *Config) { c.Catalogs = CatalogList{"mystery"} }, "unknown catalog"},
		{"duplicate source names", func(c *Config) {
			c.Catalogs = CatalogList{"builtin"}
			c.Srcs = SourceList{{Name: "builtin", Path: "content"}}
		}, "duplicate corpus source name"},
		{"bad log level", func(c *Config) { c.LogLevel = "shouty" }, "-log-level"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Defaults()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// The same rejection must surface through engine.New, the
			// single construction point every command uses.
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted %s", tc.name)
			}
		})
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	// Boundary values inside the ranges are fine.
	cfg := Defaults()
	cfg.Jobs = 1
	cfg.Rate = 0
	cfg.Burst = 0
	cfg.TraceSample = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("lower boundaries rejected: %v", err)
	}
	cfg.TraceSample = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("trace-sample 1 rejected: %v", err)
	}
}

// TestApplyEnv pins the environment layer: set variables overlay the
// defaults, unset ones leave them alone, and malformed values fail with
// an error naming the variable.
func TestApplyEnv(t *testing.T) {
	env := map[string]string{
		"PDCU_SRC":          "content",
		"PDCU_ADDR":         ":9999",
		"PDCU_JOBS":         "3",
		"PDCU_WATCH":        "true",
		"PDCU_POLL":         "2s",
		"PDCU_RATE":         "50",
		"PDCU_BURST":        "7",
		"PDCU_PPROF":        "1",
		"PDCU_LOG_LEVEL":    "debug",
		"PDCU_TRACE_SAMPLE": "0.5",
		"PDCU_TRACE_SLOW":   "100ms",
	}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	cfg := Defaults()
	if err := cfg.ApplyEnv(lookup); err != nil {
		t.Fatal(err)
	}
	if cfg.Srcs.String() != "content" || cfg.Addr != ":9999" || cfg.Jobs != 3 ||
		!cfg.Watch || cfg.Poll != 2*time.Second || cfg.Rate != 50 ||
		cfg.Burst != 7 || !cfg.Pprof ||
		cfg.LogLevel != "debug" || cfg.TraceSample != 0.5 ||
		cfg.TraceSlow != 100*time.Millisecond {
		t.Errorf("env overlay = %+v", cfg)
	}
	// PDCU_OUT was not set, so the default survives.
	if cfg.Out != "public" {
		t.Errorf("unset variable clobbered Out: %q", cfg.Out)
	}

	for key, bad := range map[string]string{
		"PDCU_JOBS":         "many",
		"PDCU_WATCH":        "maybe",
		"PDCU_POLL":         "fast",
		"PDCU_TRACE_SAMPLE": "half",
	} {
		cfg := Defaults()
		err := cfg.ApplyEnv(func(k string) (string, bool) {
			if k == key {
				return bad, true
			}
			return "", false
		})
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("malformed %s=%q: err = %v, want error naming the variable", key, bad, err)
		}
	}
}

// TestLayering pins the precedence order: defaults ← environment ←
// flags. A flag left unset keeps the env value; a set flag wins.
func TestLayering(t *testing.T) {
	cfg := Defaults()
	err := cfg.ApplyEnv(func(k string) (string, bool) {
		switch k {
		case "PDCU_ADDR":
			return ":7777", true
		case "PDCU_RATE":
			return "42", true
		}
		return "", false
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg.BindServeFlags(fs)
	if err := fs.Parse([]string{"-rate", "9"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":7777" {
		t.Errorf("unset flag lost the env value: Addr = %q", cfg.Addr)
	}
	if cfg.Rate != 9 {
		t.Errorf("set flag did not win over env: Rate = %v", cfg.Rate)
	}
	if cfg.Poll != 500*time.Millisecond {
		t.Errorf("untouched field lost its default: Poll = %v", cfg.Poll)
	}
}

func TestSlogLevel(t *testing.T) {
	cfg := Defaults()
	cfg.LogLevel = "warn"
	if got := cfg.SlogLevel().String(); got != "WARN" {
		t.Errorf("SlogLevel = %s, want WARN", got)
	}
	cfg.Verbose = true
	if got := cfg.SlogLevel().String(); got != "DEBUG" {
		t.Errorf("Verbose SlogLevel = %s, want DEBUG", got)
	}
}
