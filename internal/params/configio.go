package params

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"armdse/internal/atomicfile"
	"armdse/internal/sstmem"
)

// SaveConfig writes a configuration as indented JSON (the repo's equivalent
// of the paper's generated YAML core file plus Python SST file).
func SaveConfig(cfg Config, path string) error {
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// LoadConfig reads a JSON configuration and validates it.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return Config{}, fmt.Errorf("params: parsing %s: %w", path, err)
	}
	if cfg.Mem.CoreClockGHz == 0 {
		cfg.Mem.CoreClockGHz = sstmem.DefaultCoreClockGHz
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("params: %s: %w", path, err)
	}
	return cfg, nil
}
